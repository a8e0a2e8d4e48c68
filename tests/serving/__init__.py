"""Test package (enables intra-suite imports like tests.strategies)."""
