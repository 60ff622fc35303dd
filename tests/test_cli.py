"""Tests for the ``lslp`` command-line interface."""

import re

import pytest

from repro.cli import main

KERNEL = """
long A[1024], B[1024], C[1024];
void kernel(long i) {
    A[i + 0] = (B[i + 0] << 1) & (C[i + 0] << 2);
    A[i + 1] = (C[i + 1] << 3) & (B[i + 1] << 4);
}
"""


#: an entry that calls a helper the inliner keeps (it has a loop), so
#: only compiling the helper itself vectorizes its four stores
HELPER_MODULE = """
double A[1024], B[1024], C[1024];
double helper(long n) {
    double s = 0.0;
    for (long j = 0; j < n; j = j + 1) { s = s + B[j]; }
    A[100] = B[100] * C[100] + B[102];
    A[101] = B[101] * C[101] + B[103];
    A[102] = B[102] * C[102] + B[104];
    A[103] = B[103] * C[103] + B[105];
    return s;
}
void kernel(long i) { A[0] = helper(i); }
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(KERNEL)
    return str(path)


class TestCompile:
    def test_lslp_vectorizes(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--report"]) == 0
        out = capsys.readouterr().out
        assert "static cost -6" in out
        assert "<2 x i64>" in out
        assert "vectorized" in out

    def test_slp_leaves_scalar(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--config", "slp",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "static cost 0" in out
        assert "<2 x i64>" not in out
        assert "rejected" in out

    def test_print_before(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--print-before"]) == 0
        out = capsys.readouterr().out
        assert "; --- before ---" in out
        assert out.index("before") < out.index("after")

    def test_lookahead_zero_behaves_like_slp(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--look-ahead", "0",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "static cost 0" in out

    def test_sse_target(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--target", "sse-like"]) == 0

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["compile", "/nonexistent/kernel.c"])


class TestRun:
    def test_run_reports_cycles(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=4",
                     "--dump", "A", "--dump-count", "4"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "@A[0:4]" in out

    def test_run_matches_scalar_results(self, kernel_file, capsys):
        main(["run", kernel_file, "--config", "o3", "--arg", "i=4",
              "--dump", "A"])
        scalar = capsys.readouterr().out.splitlines()[-1]
        main(["run", kernel_file, "--config", "lslp", "--arg", "i=4",
              "--dump", "A"])
        vector = capsys.readouterr().out.splitlines()[-1]
        assert scalar == vector

    def test_malformed_arg(self, kernel_file):
        with pytest.raises(SystemExit, match="malformed"):
            main(["run", kernel_file, "--arg", "i"])

    def test_run_compiles_every_function(self, tmp_path, capsys):
        """``run`` compiles the module ``compile`` compiles, so the
        helper the entry calls runs vectorized and reports its
        remarks; the oracle still checks the entry."""
        path = tmp_path / "helper.c"
        path.write_text(HELPER_MODULE)

        def run(config):
            assert main(["run", str(path), "--arg", "i=8", "--config",
                         config, "--verify", "--remarks"]) == 0
            out = capsys.readouterr().out
            assert f"verify: @kernel scalar and {config.upper()} " \
                "outputs match" in out
            return int(re.search(r"(\d+) cycles", out).group(1)), out

        lslp, out = run("lslp")
        scalar, _ = run("o3")
        assert lslp < scalar
        assert "[@helper, pass 'unroll']" in out


class TestInspection:
    def test_kernels_lists_catalog(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "453.calc-z3" in out
        assert "motivation-multi" in out

    def test_figures_table2(self, capsys):
        assert main(["figures", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit, match="unknown figure"):
            main(["figures", "fig99"])


class TestTrace:
    def test_trace_prints_instructions(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=4", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "; ->" in out
        assert "store" in out

    def test_trace_limit(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=4", "--trace",
                     "--trace-limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "more)" in out


class TestSharedFlags:
    KNOBS = ["--look-ahead", "4", "--multi-node", "3",
             "--plan-select", "module-exhaustive", "--reg-pressure-weight", "2",
             "--ifconvert", "cost", "--loop-vectorize",
             "--unroll-max-trip", "16", "--max-lookahead-evals", "7",
             "--max-select-subsets", "3"]

    def test_batch_and_compile_apply_knobs_alike(self):
        from repro.cli import _batch_configs, _config_from_args, build_parser

        parser = build_parser()
        compiled = parser.parse_args(["compile", "k.c", *self.KNOBS])
        batched = parser.parse_args(["batch", "catalog", "--configs",
                                     "lslp", *self.KNOBS])
        config = _config_from_args(compiled)
        assert _batch_configs(batched.configs, batched) == [config]
        assert config.look_ahead_depth == 4
        assert config.budget.max_select_subsets == 3
