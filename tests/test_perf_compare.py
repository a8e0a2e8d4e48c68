"""The perf comparator's verdict rule, on canned samples.

``scripts/perf_compare.py`` drives the repository benchmark on a parent
commit and this checkout; tier-1 runs no benchmark, so these tests pin
the pure parts: the verdict of paired samples against a bound, the run
checks, the refusal to compare different benchmarks, and the report.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_compare.py"


@pytest.fixture(scope="module")
def pc():
    spec = importlib.util.spec_from_file_location("perf_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # Registered first: dataclasses resolve annotations through it.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


# Ten pairs: the parent's median is 100 with quartiles 98 and 102.
PARENT = [96.0, 97.0, 98.0, 99.0, 99.5, 100.5, 101.0, 102.0, 103.0, 104.0]


def verdict(pc, parent, change, *, higher=True, bound=0.25):
    return pc.compare(parent, change, higher_is_better=higher, bound=bound).verdict


class TestVerdict:
    def test_better_needs_nine_in_ten_and_a_gap_beyond_the_iqr(self, pc):
        change = [value + 10.0 for value in PARENT]
        result = pc.compare(PARENT, change, higher_is_better=True, bound=0.25)
        assert result.verdict == "better"
        assert result.wins == 10 and result.pairs == 10
        assert result.parent[0] == pytest.approx(100.0)
        assert result.change[0] == pytest.approx(110.0)

    def test_eight_wins_in_ten_is_not_better(self, pc):
        change = [value + 10.0 for value in PARENT]
        change[0] = PARENT[0]  # a tie
        change[1] = PARENT[1] - 1.0  # and a loss: 8 wins of 10
        assert pc.compare(PARENT, change, higher_is_better=True, bound=0.25).wins == 8
        assert verdict(pc, PARENT, change) == "within"

    def test_gap_inside_the_parents_iqr_is_not_better(self, pc):
        change = [value + 1.0 for value in PARENT]  # 10 wins, gap 1 < IQR
        assert verdict(pc, PARENT, change) == "within"

    def test_ties_count_for_neither_side(self, pc):
        result = pc.compare(PARENT, list(PARENT), higher_is_better=True, bound=0.25)
        assert result.wins == 0 and result.verdict == "within"

    def test_worse_beyond_the_bound(self, pc):
        assert verdict(pc, PARENT, [v * 0.7 for v in PARENT]) == "worse"
        assert verdict(pc, PARENT, [v * 0.8 for v in PARENT]) == "within"

    def test_lower_is_better_flips_every_direction(self, pc):
        assert verdict(pc, PARENT, [v - 10.0 for v in PARENT], higher=False) == "better"
        assert verdict(pc, PARENT, [v * 1.3 for v in PARENT], higher=False) == "worse"
        assert verdict(pc, PARENT, [v + 10.0 for v in PARENT], higher=False) == "within"

    def test_worse_wins_over_a_wide_spread(self, pc):
        wide = [50.0, 60.0, 100.0, 140.0, 150.0]
        assert verdict(pc, wide, [10.0, 20.0, 30.0, 40.0, 50.0]) == "worse"

    def test_wide_parent_spread_is_unresolved(self, pc):
        wide = [50.0, 60.0, 100.0, 140.0, 150.0]  # IQR 80 > 25% of 100
        assert verdict(pc, wide, [55.0, 65.0, 95.0, 135.0, 145.0]) == "unresolved"

    def test_unless_every_change_run_beats_every_parent_run(self, pc):
        wide = [50.0, 60.0, 100.0, 140.0, 150.0]
        change = [151.0, 152.0, 153.0, 154.0, 155.0]  # gap 53 < IQR 80
        assert verdict(pc, wide, change) == "within"
        assert pc.every_run_better(wide, change, higher_is_better=True)
        assert not pc.every_run_better(wide, change, higher_is_better=False)

    def test_bound_is_relative_to_the_parents_median(self, pc):
        assert verdict(pc, PARENT, [v * 0.9 for v in PARENT], bound=0.05) == "worse"
        assert verdict(pc, PARENT, [v * 0.9 for v in PARENT], bound=0.25) == "within"

    def test_unpaired_samples_are_refused(self, pc):
        with pytest.raises(ValueError):
            pc.compare(PARENT, PARENT[:-1], higher_is_better=True, bound=0.25)
        with pytest.raises(ValueError):
            pc.compare([], [], higher_is_better=True, bound=0.25)


class TestRunChecks:
    def test_only_correct_runs_without_failures_are_ok(self, pc):
        assert pc.run_ok({"correct": True, "failed": 0, "metrics": {}})
        assert not pc.run_ok({"correct": False, "failed": 0})
        assert not pc.run_ok({"correct": True, "failed": 2})
        assert not pc.run_ok({"crashed": "exit 1: boom"})
        assert "exit 1" in pc.run_problem({"crashed": "exit 1: boom"})
        assert "failed=2" in pc.run_problem({"correct": True, "failed": 2})


class TestBenchmarkIdentity:
    def tree(self, root, files):
        for name, text in files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return root

    def test_identical_benchmarks_compare(self, pc, tmp_path):
        files = {"BENCHMARK.json": "{}", "perfbench/run.py": "x", "src/a.py": "1"}
        a = self.tree(tmp_path / "a", files)
        b = self.tree(tmp_path / "b", dict(files, **{"src/a.py": "2"}))
        # Run leftovers are not part of the benchmark.
        self.tree(b, {"perfbench/.work/tmp/f": "y", "perfbench/__pycache__/r.pyc": "z"})
        assert pc.benchmark_differs(a, b) == []

    def test_a_changed_added_or_removed_file_is_named(self, pc, tmp_path):
        files = {"BENCHMARK.json": "{}", "perfbench/run.py": "x", "perfbench/h.py": "h"}
        a = self.tree(tmp_path / "a", files)
        b = self.tree(
            tmp_path / "b",
            {"BENCHMARK.json": "{ }", "perfbench/run.py": "x", "perfbench/new.py": ""},
        )
        assert pc.benchmark_differs(a, b) == [
            "BENCHMARK.json", "perfbench/h.py", "perfbench/new.py"
        ]


    def test_main_refuses_before_running_anything(self, pc, monkeypatch, capsys):
        def archive(ref, dest):
            (dest / "BENCHMARK.json").write_text("{}")
            return "abc1234"

        monkeypatch.setattr(pc, "archive", archive)
        monkeypatch.setattr(pc, "run_pairs", lambda *a: pytest.fail("ran"))
        code = pc.main(["HEAD", "--workload", "fit-merge-20k", "--seed", "1"])
        assert code == 2
        assert "refusing to compare" in capsys.readouterr().err


class TestReport:
    def test_one_line_per_end_to_end_metric(self, pc):
        spec = {
            "end_to_end": [
                {"name": "rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.25},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            ]
        }

        def run(rows, setup):
            return {
                "correct": True,
                "failed": 0,
                "metrics": {
                    "rows_per_s": {"value": rows, "unit": "rows/s"},
                    "setup_s": {"value": setup, "unit": "s"},
                },
            }

        runs = {
            "parent": [run(v, 4.0) for v in PARENT],
            "change": [run(v * 1.5, 4.0) for v in PARENT],
        }
        lines, verdicts = pc.report("serve-transform-50k", 7, runs, spec)
        assert verdicts == ["better", "within"]
        assert lines[0] == "== serve-transform-50k seed=7 pairs=10 =="
        assert lines[2].startswith("rows_per_s") and "10/10" in lines[2]
        assert lines[3].startswith("setup_s") and "0/10" in lines[3]
