import pytest

from covereval.cli import EXIT_COMPUTATION, EXIT_OK, EXIT_VALIDATION, main


class TestFitCommand:
    def test_fits_every_family(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_text("1 2 2 3 5 8 13\n")
        assert main(["fit", "--samples", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family,params,ks" and len(lines) == 11

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "3x"])
    def test_bad_sample_is_an_input_error(self, tmp_path, capsys, token):
        path = tmp_path / "samples.txt"
        path.write_text(f"1 2 {token} 4 5 6\n")
        assert main(["fit", "--samples", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestRankCommand:
    @pytest.mark.parametrize("text", ["alg,c1,c2\nA,1,2\nB,x,1\n",
                                      "alg,c1,c2\nA,1,2\nB,2\n", ""])
    def test_malformed_table_is_an_input_error(self, tmp_path, capsys, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        assert main(["rank", "--table", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_rank_outside_range_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("alg,c1\nA,5\nB,1\n")
        assert main(["rank", "--table", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: ranks must lie in [1, 2]\n"

    def test_aggregation_failure_stays_a_computation_error(self, tmp_path, capsys):
        # a well-formed one-alternative table: TOPSIS needs two
        path = tmp_path / "table.csv"
        path.write_text("alg,c1\nA,1\n")
        assert main(["rank", "--table", str(path)]) == EXIT_COMPUTATION
        assert capsys.readouterr().err.startswith("computation error: ")
