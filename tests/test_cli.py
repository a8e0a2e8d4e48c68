"""End-to-end CLI tests (anonymize and audit subcommands)."""

import numpy as np
import pytest

from repro.cli import main
from repro.data import load_mcd, read_csv, write_csv
from repro.privacy import distinct_l_diversity, is_k_anonymous, is_t_close


@pytest.fixture
def census_csv(tmp_path):
    path = tmp_path / "census.csv"
    write_csv(load_mcd(n=150), path)
    return path


class TestAnonymizeCommand:
    def test_end_to_end(self, census_csv, tmp_path, capsys):
        out = tmp_path / "release.csv"
        code = main(
            [
                "anonymize",
                str(census_csv),
                str(out),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "-k",
                "3",
                "-t",
                "0.2",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "tclose-first" in stdout
        release = read_csv(
            out,
            quasi_identifiers=["TAXINC", "POTHVAL"],
            confidential=["FEDTAX"],
        )
        assert release.n_records == 150
        assert is_k_anonymous(release, 3)
        assert is_t_close(release, 0.2 + 1e-9)

    def test_method_selection(self, census_csv, tmp_path, capsys):
        out = tmp_path / "release.csv"
        code = main(
            [
                "anonymize",
                str(census_csv),
                str(out),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "-k",
                "2",
                "-t",
                "0.25",
                "--method",
                "merge",
            ]
        )
        assert code == 0
        assert "merge" in capsys.readouterr().out

    def test_report_flag(self, census_csv, tmp_path, capsys):
        out = tmp_path / "release.csv"
        main(
            [
                "anonymize",
                str(census_csv),
                str(out),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "-k",
                "3",
                "-t",
                "0.2",
                "--report",
            ]
        )
        stdout = capsys.readouterr().out
        assert "Privacy audit" in stdout
        assert "record-linkage risk" in stdout

    def test_identifier_dropped(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        data = load_mcd(n=60)
        # Reuse FICA-free census; add a synthetic id column via CSV text.
        write_csv(data, src)
        text = src.read_text().splitlines()
        text[0] = "ID," + text[0]
        for i in range(1, len(text)):
            text[i] = f"{i}," + text[i]
        src.write_text("\n".join(text) + "\n")
        out = tmp_path / "out.csv"
        main(
            [
                "anonymize",
                str(src),
                str(out),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "--identifier",
                "ID",
                "-k",
                "2",
                "-t",
                "0.3",
            ]
        )
        header = out.read_text().splitlines()[0]
        assert "ID" not in header.split(",")

    def test_unknown_method_rejected(self, census_csv, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "anonymize",
                    str(census_csv),
                    str(tmp_path / "o.csv"),
                    "--qi",
                    "TAXINC",
                    "--confidential",
                    "FEDTAX",
                    "-k",
                    "2",
                    "-t",
                    "0.2",
                    "--method",
                    "wizardry",
                ]
            )


class TestRequireFlag:
    def test_require_policy_release_passes_audit(self, census_csv, tmp_path, capsys):
        out = tmp_path / "release.csv"
        code = main(
            [
                "anonymize",
                str(census_csv),
                str(out),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "--require",
                "k=5,t=0.15,l=2",
            ]
        )
        assert code == 0
        release = read_csv(
            out,
            quasi_identifiers=["TAXINC", "POTHVAL"],
            confidential=["FEDTAX"],
        )
        assert is_k_anonymous(release, 5)
        assert is_t_close(release, 0.15 + 1e-9)
        assert distinct_l_diversity(release) >= 2

    def test_require_combines_with_k_and_t_flags(self, census_csv, tmp_path):
        out = tmp_path / "release.csv"
        code = main(
            [
                "anonymize",
                str(census_csv),
                str(out),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "-k",
                "4",
                "--require",
                "t=0.2",
            ]
        )
        assert code == 0
        release = read_csv(
            out,
            quasi_identifiers=["TAXINC", "POTHVAL"],
            confidential=["FEDTAX"],
        )
        assert is_k_anonymous(release, 4)

    def test_duplicate_requirement_is_an_error(self, census_csv, tmp_path, capsys):
        code = main(
            [
                "anonymize",
                str(census_csv),
                str(tmp_path / "o.csv"),
                "--qi",
                "TAXINC",
                "--confidential",
                "FEDTAX",
                "-k",
                "3",
                "-t",
                "0.2",
                "--require",
                "k=5",
            ]
        )
        assert code == 2
        assert "duplicate" in capsys.readouterr().err

    def test_infeasible_policy_is_a_clean_error(self, census_csv, tmp_path, capsys):
        code = main(
            [
                "anonymize",
                str(census_csv),
                str(tmp_path / "o.csv"),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "--require",
                "k=3,t=0.5,l=500",
            ]
        )
        assert code == 2
        assert "policy requires 500 distinct" in capsys.readouterr().err

    def test_no_requirements_is_an_error(self, census_csv, tmp_path, capsys):
        code = main(
            [
                "anonymize",
                str(census_csv),
                str(tmp_path / "o.csv"),
                "--qi",
                "TAXINC",
                "--confidential",
                "FEDTAX",
            ]
        )
        assert code == 2
        assert "no privacy requirements" in capsys.readouterr().err


class TestBadInput:
    """Unusable input is one ``error:`` line on stderr and exit 2."""

    @pytest.mark.parametrize("command", ["anonymize", "audit"])
    def test_unknown_column_is_a_clean_error(
        self, census_csv, tmp_path, capsys, command
    ):
        argv = [command, str(census_csv)]
        if command == "anonymize":
            argv += [str(tmp_path / "o.csv"), "-k", "3", "-t", "0.2"]
        code = main(argv + ["--qi", "TAXINC,TAXINX", "--confidential", "FEDTAX"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "TAXINX" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["anonymize", "audit"])
    def test_missing_input_is_a_clean_error(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.csv"
        argv = [command, str(missing)]
        if command == "anonymize":
            argv += [str(tmp_path / "o.csv"), "-k", "3", "-t", "0.2"]
        code = main(argv + ["--qi", "TAXINC", "--confidential", "FEDTAX"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.csv" in err
        assert err.count("\n") == 1


class TestFitApplyCommands:
    def test_fit_then_apply_round_trip(self, census_csv, tmp_path, capsys):
        model = tmp_path / "model.npz"
        release = tmp_path / "release.csv"
        code = main(
            [
                "fit",
                str(census_csv),
                str(model),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "--require",
                "k=4,t=0.2",
                "--release",
                str(release),
            ]
        )
        assert code == 0
        assert model.exists()
        assert model.with_suffix(".json").exists()
        assert release.exists()
        stdout = capsys.readouterr().out
        assert "Run report" in stdout
        assert "satisfied" in stdout

        out = tmp_path / "applied.csv"
        code = main(["apply", str(model), str(census_csv), str(out)])
        assert code == 0
        applied = read_csv(
            out,
            quasi_identifiers=["TAXINC", "POTHVAL"],
            confidential=["FEDTAX"],
        )
        assert applied.n_records == 150
        # Every applied quasi-identifier row is one of the fitted
        # representatives (a record may map to a *different* cluster's
        # representative than at fit time, so exact class sizes — and thus
        # batch-level k — are not guaranteed; the generalized values are).
        fitted_release = read_csv(
            release,
            quasi_identifiers=["TAXINC", "POTHVAL"],
            confidential=["FEDTAX"],
        )
        reps = {
            tuple(row) for row in fitted_release.matrix(["TAXINC", "POTHVAL"])
        }
        for row in applied.matrix(["TAXINC", "POTHVAL"]):
            assert tuple(row) in reps

    def test_apply_rejects_batch_missing_qi(self, census_csv, tmp_path, capsys):
        model = tmp_path / "model.npz"
        main(
            [
                "fit",
                str(census_csv),
                str(model),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "-k",
                "3",
                "-t",
                "0.3",
            ]
        )
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        lines = census_csv.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("TAXINC")
        bad.write_text(
            "\n".join(
                ",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                for line in lines
            )
            + "\n"
        )
        # Schema mismatches are caught at the CLI boundary: a clean
        # diagnostic on stderr and exit code 2, not a traceback.
        code = main(["apply", str(model), str(bad), str(tmp_path / "o.csv")])
        assert code == 2
        assert "missing quasi-identifier" in capsys.readouterr().err


class TestAuditCommand:
    def test_audit_prints_report(self, census_csv, tmp_path, capsys):
        out = tmp_path / "release.csv"
        main(
            [
                "anonymize",
                str(census_csv),
                str(out),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "-k",
                "4",
                "-t",
                "0.2",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "audit",
                str(out),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "k-anonymity level    : 4" in stdout or "k-anonymity" in stdout

    def test_audit_exit_codes_follow_declared_requirements(
        self, census_csv, tmp_path, capsys
    ):
        """Satellite: audit returns 1 when the release fails the declared
        requirements (matching anonymize's behavior), 0 when it passes."""
        out = tmp_path / "release.csv"
        main(
            [
                "anonymize",
                str(census_csv),
                str(out),
                "--qi",
                "TAXINC,POTHVAL",
                "--confidential",
                "FEDTAX",
                "-k",
                "4",
                "-t",
                "0.2",
            ]
        )
        capsys.readouterr()
        common = [
            "audit",
            str(out),
            "--qi",
            "TAXINC,POTHVAL",
            "--confidential",
            "FEDTAX",
        ]
        assert main(common + ["--require", "k=4,t=0.2"]) == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout and "policy satisfied" in stdout

        assert main(common + ["--require", "k=100,t=0.2"]) == 1
        stdout = capsys.readouterr().out
        assert "FAIL" in stdout and "VIOLATED" in stdout

        # Without declared requirements the command stays informational.
        assert main(common) == 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
