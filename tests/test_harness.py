import json
import os
from pathlib import Path

import numpy as np
import pytest

from hypfrob import cache as cachemod
from hypfrob import ensemble as ens
from hypfrob import harness
from hypfrob import lfunction as lf
from hypfrob import polyfield as pf
from hypfrob.cli import main


def run_cli(args):
    return main(args)


def strip_timestamp(path):
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    return b"\n".join(ln for ln in lines if not ln.startswith(b"# generated:"))


class TestConfig:
    def test_file_then_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 3\ng = 2\nworkers = 4\ntf.bump = 0:1,-2;1/2\n")
        args_ns = _parse(["moment", "--config", str(cfg), "--g", "1"])
        from hypfrob.cli import config_from_args
        config = config_from_args(args_ns)
        assert config.q == 3
        assert config.g == 1          # flag wins over the file
        assert config.workers == 4
        assert "bump" in config.custom_tf

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 7\n")
        from hypfrob.cli import config_from_args
        with pytest.raises(harness.ConfigError):
            config_from_args(_parse(["verify", "--config", str(cfg)]))

    def test_bad_format_rejected(self):
        with pytest.raises(harness.ConfigError):
            harness.ExperimentConfig(fmt="xml")

    def test_env_cache_dir(self, monkeypatch):
        monkeypatch.setenv(harness.CACHE_ENV, "/tmp/some-cache")
        assert harness.ExperimentConfig().cache_dir == "/tmp/some-cache"

    def test_main_reuses_one_parser_without_carrying_specs(self, monkeypatch):
        from hypfrob import cli
        seen = []

        def fake_run(config):
            seen.append(config.specs)
            return harness.ExperimentResult(0, [], [])

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        parser = cli.build_parser()
        assert cli.main(["moment", "--q", "3", "--spec", "(1,2)", "--spec", "(2,2)"]) == 0
        assert cli.main(["moment", "--q", "3", "--spec", "(4,1)"]) == 0
        assert cli.main(["moment", "--q", "3"]) == 0
        assert seen[0] == ["(1,2)", "(2,2)"]
        assert seen[1] == ["(4,1)"]
        assert seen[2] == harness.ExperimentConfig().specs
        assert cli.build_parser() is parser


def _parse(args):
    from hypfrob.cli import build_parser
    return build_parser().parse_args(args)


class TestExitCodes:
    def test_verify_ok(self, tmp_path, capsys):
        code = run_cli(["verify", "--q", "3", "--g", "1",
                        "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "cardinality" in capsys.readouterr().out

    def test_budget_refusal(self, tmp_path):
        code = run_cli(["verify", "--q", "3", "--g", "8",
                        "--cache-dir", str(tmp_path / "cache")])
        assert code == 3
        # 3^7 monic codes exceed a budget of 1000, 3^6 do not
        assert run_cli(["sigma", "--q", "3", "--degrees", "2", "--alpha-max", "6",
                        "--budget", "1000", "--out", str(tmp_path)]) == 0
        assert run_cli(["sigma", "--q", "3", "--degrees", "2", "--alpha-max", "7",
                        "--budget", "1000", "--out", str(tmp_path)]) == 3

    def test_charsum_budget_refusal(self, tmp_path):
        # the grid at q=3, degrees 1 is 3 primes x 3^beta monic B: 27 entries
        # at beta = 2, 81 at beta = 3
        assert run_cli(["charsum", "--q", "3", "--degrees", "1", "--beta-max", "2",
                        "--budget", "27", "--out", str(tmp_path)]) == 0
        assert run_cli(["charsum", "--q", "3", "--degrees", "1", "--beta-max", "3",
                        "--budget", "27", "--out", str(tmp_path)]) == 3

    def test_config_error(self, capsys):
        code = run_cli(["moment", "--q", "3", "--g", "1", "--spec", "(2,1);(2,2)"])
        assert code == 2

    def test_bad_degrees_are_config_errors(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("degrees = 1,x\n")
        for args in (["sigma", "--q", "3", "--degrees", "a,b"],
                     ["sigma", "--q", "3", "--config", str(cfg)]):
            assert run_cli(args + ["--out", str(tmp_path)]) == 2
            assert "config error: invalid literal for int()" in capsys.readouterr().err

    def test_degrees_below_one_are_config_errors(self, tmp_path, capsys):
        for degrees in ("0", "1,-2"):
            assert run_cli(["sigma", "--q", "3", "--degrees", degrees,
                            "--out", str(tmp_path)]) == 2
            assert "config error: degrees must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("sigma*"))

    def test_negative_ranges_are_config_errors(self, tmp_path, capsys):
        for command, flag, name in (("sigma", "--alpha-max", "alpha-max"),
                                    ("charsum", "--beta-max", "beta-max")):
            assert run_cli([command, "--q", "3", flag, "-1", "--out", str(tmp_path)]) == 2
            assert f"config error: {name} must be >= 0, got -1" in capsys.readouterr().err
            assert not list(tmp_path.glob(f"{command}*"))
            # the least range, alpha = 0 or beta = 0 alone, still runs
            assert run_cli([command, "--q", "3", flag, "0", "--format", "json",
                            "--out", str(tmp_path)]) == 0
            rows = json.loads((tmp_path / f"{command}_q3.json").read_text())
            assert len(rows) == 1
        with pytest.raises(harness.ConfigError):
            harness.ExperimentConfig(command="sigma", alpha_max=-1)

    def test_negative_l_is_a_config_error(self, tmp_path, capsys):
        code = run_cli(["decompose", "--q", "3", "--g", "1", "--l", "-1",
                        "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path)])
        assert code == 2
        assert "l must be >= 0" in capsys.readouterr().err

    def test_genus_below_one_is_a_config_error(self, tmp_path, capsys):
        for command in ("rmt", "moment"):
            for g in ("0", "-1"):
                code = run_cli([command, "--q", "3", "--g", g, "--cache-dir",
                                str(tmp_path / "cache"), "--out", str(tmp_path)])
                assert code == 2
                assert "config error: genus must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # no report row for USp(0), no cache

    def test_k_below_one_is_a_config_error(self, tmp_path, capsys):
        for k in ("0", "-1"):
            code = run_cli(["decompose", "--q", "3", "--g", "1", "--k", k, "--cache-dir",
                            str(tmp_path / "cache"), "--out", str(tmp_path)])
            assert code == 2
            assert f"config error: k must be >= 1, got {k}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # refused before the default k list runs
        assert run_cli(["decompose", "--q", "3", "--g", "1", "--k", "1", "--cache-dir",
                        str(tmp_path / "cache"), "--out", str(tmp_path)]) == 0
        assert "decompose q=3 g=1 k=1:" in capsys.readouterr().out

    def test_nonpositive_moment_count_is_a_config_error(self, tmp_path, capsys):
        for m in ("0", "-1"):
            code = run_cli(["linstat", "--q", "3", "--g", "1", "--moments", m,
                            "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path)])
            assert code == 2
            assert "m must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("linstat*"))
        assert not (tmp_path / "cache").exists()  # refused before any ensemble is cached

    def test_linstat_depth_below_the_active_modes_is_a_config_error(self, tmp_path, capsys):
        # triangular:1 at g = 2 reads s_1..s_3
        code = run_cli(["linstat", "--q", "3", "--g", "2", "--N", "1", "--tf", "triangular:1",
                        "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path)])
        assert code == 2
        assert "need traces through k=3, have N=1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # no report, and no trace cache written
        assert run_cli(["linstat", "--q", "3", "--g", "2", "--N", "3", "--tf", "triangular:1",
                        "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path)]) == 0

    def test_negative_trace_depth_is_a_config_error(self, tmp_path, capsys):
        for command in (["lfun", "--g", "2"], ["primes"], ["moment", "--g", "1"]):
            code = run_cli(command + ["--q", "3", "--N", "-1", "--cache-dir",
                                      str(tmp_path / "cache"), "--out", str(tmp_path)])
            assert code == 2
            assert "N must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()
        assert not list(tmp_path.glob("lfun*"))
        with pytest.raises(ValueError, match="N must be >= 0"):
            ens.compute_ensemble_data(3, 1, -1)

    def test_newton_depth_beyond_int64_refused(self, tmp_path, capsys):
        code = run_cli(["moment", "--q", "13", "--g", "2", "--N", "31", "--spec", "(31,1)",
                        "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path)])
        assert code == 2
        assert "2^63" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_invariant_failure_from_corrupt_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        data = ens.compute_ensemble_data(3, 1, 4)
        tampered = ens.EnsembleData(q=3, g=1, N=4, coeffs=data.coeffs, s=data.s.copy())
        tampered.s[0, 0] += 1
        cachemod.write_trace_cache(
            cachemod.trace_cache_path(cache_dir, 3, 1, 4), tampered)
        code = run_cli(["verify", "--q", "3", "--g", "1", "--cache-dir", cache_dir])
        assert code == 1
        fails = [ln.strip() for ln in capsys.readouterr().out.splitlines() if "[FAIL]" in ln]
        assert fails == [
            "[FAIL] cache consistency: cached traces DIFFER from a fresh computation; "
            "1 of 18 differ, first curve 0",
            "[FAIL] engine agreement: vectorized pipeline == per-curve path, all curves; "
            "1 of 18 failed, first curve 0: engine trace mismatch",
            "[FAIL] divisor degrees: inversion failed: prime-sum inversion not integral at n=3",
        ]


# the lines of `verify_suite(q, g)` on a fresh ensemble, byte for byte
VERIFY_LINES = {
    (3, 1): """\
[ok] cardinality: 18 curves vs (q-1)q^(2g) = 18
[ok] functional equation: exact coefficient symmetry, all curves
[ok] riemann hypothesis: root magnitudes within 1e-9 of q^(-1/2), all curves
[ok] dual trace paths: explicit sums == Newton power sums (n <= 4), all curves
[ok] engine agreement: vectorized pipeline == per-curve path, all curves
[ok] eigenphase pairing: 2g phases, closed under negation, all curves
[ok] trace reconstruction: phases reproduce s_n to 1e-9 q^(n/2), all curves
[ok] unitarity bound: |s_n| <= 2g q^(n/2), all curves
[ok] prime-sum bound: |n c_n| <= (2g+2) q^(n/2), all curves
[ok] power decomposition: prime+square+higher == -s_k, all curves
[ok] point counts: direct == q^n + 1 - s_n (n <= 3), all curves
[ok] dual averages: direct == Moebius-decomposed for 10 functionals
[ok] divisor degrees: max total divisor degree 3 <= 2g+1 (and prime-sum inversion integral)""",
    (3, 2): """\
[ok] cardinality: 162 curves vs (q-1)q^(2g) = 162
[ok] functional equation: exact coefficient symmetry, all curves
[ok] riemann hypothesis: root magnitudes within 1e-9 of q^(-1/2), all curves
[ok] dual trace paths: explicit sums == Newton power sums (n <= 6), all curves
[ok] engine agreement: vectorized pipeline == per-curve path, all curves
[ok] eigenphase pairing: 2g phases, closed under negation, all curves
[ok] trace reconstruction: phases reproduce s_n to 1e-9 q^(n/2), all curves
[ok] unitarity bound: |s_n| <= 2g q^(n/2), all curves
[ok] prime-sum bound: |n c_n| <= (2g+2) q^(n/2), all curves
[ok] power decomposition: prime+square+higher == -s_k, all curves
[ok] point counts: direct == q^n + 1 - s_n (n <= 3), all curves
[ok] dual averages: direct == Moebius-decomposed for 10 functionals
[ok] divisor degrees: max total divisor degree 5 <= 2g+1 (and prime-sum inversion integral)""",
    # stride samples: every 3rd of 1,458 curves, every 32nd of 13,122
    (3, 3): """\
[ok] cardinality: 1458 curves vs (q-1)q^(2g) = 1458
[ok] functional equation: exact coefficient symmetry, every 3th curve
[ok] riemann hypothesis: root magnitudes within 1e-9 of q^(-1/2), every 3th curve
[ok] dual trace paths: explicit sums == Newton power sums (n <= 6), every 3th curve
[ok] engine agreement: vectorized pipeline == per-curve path, every 3th curve
[ok] eigenphase pairing: 2g phases, closed under negation, every 3th curve
[ok] trace reconstruction: phases reproduce s_n to 1e-9 q^(n/2), every 3th curve
[ok] unitarity bound: |s_n| <= 2g q^(n/2), every 3th curve
[ok] prime-sum bound: |n c_n| <= (2g+2) q^(n/2), every 3th curve
[ok] power decomposition: prime+square+higher == -s_k, every 3th curve
[ok] point counts: direct == q^n + 1 - s_n (n <= 2), every 3th curve
[ok] dual averages: direct == Moebius-decomposed for 10 functionals
[ok] divisor degrees: max total divisor degree 7 <= 2g+1 (and prime-sum inversion integral)""",
    (3, 4): """\
[ok] cardinality: 13122 curves vs (q-1)q^(2g) = 13122
[ok] functional equation: exact coefficient symmetry, every 32th curve
[ok] riemann hypothesis: root magnitudes within 1e-9 of q^(-1/2), every 32th curve
[ok] dual trace paths: explicit sums == Newton power sums (n <= 6), every 32th curve
[ok] engine agreement: vectorized pipeline == per-curve path, every 32th curve
[ok] eigenphase pairing: 2g phases, closed under negation, every 32th curve
[ok] trace reconstruction: phases reproduce s_n to 1e-9 q^(n/2), every 32th curve
[ok] unitarity bound: |s_n| <= 2g q^(n/2), every 32th curve
[ok] prime-sum bound: |n c_n| <= (2g+2) q^(n/2), every 32th curve
[ok] power decomposition: prime+square+higher == -s_k, every 32th curve
[ok] point counts: direct == q^n + 1 - s_n (n <= 2), every 32th curve
[ok] divisor degrees: max total divisor degree 9 <= 2g+1 (and prime-sum inversion integral)""",
    (5, 1): """\
[ok] cardinality: 100 curves vs (q-1)q^(2g) = 100
[ok] functional equation: exact coefficient symmetry, all curves
[ok] riemann hypothesis: root magnitudes within 1e-9 of q^(-1/2), all curves
[ok] dual trace paths: explicit sums == Newton power sums (n <= 4), all curves
[ok] engine agreement: vectorized pipeline == per-curve path, all curves
[ok] eigenphase pairing: 2g phases, closed under negation, all curves
[ok] trace reconstruction: phases reproduce s_n to 1e-9 q^(n/2), all curves
[ok] unitarity bound: |s_n| <= 2g q^(n/2), all curves
[ok] prime-sum bound: |n c_n| <= (2g+2) q^(n/2), all curves
[ok] power decomposition: prime+square+higher == -s_k, all curves
[ok] point counts: direct == q^n + 1 - s_n (n <= 3), all curves
[ok] dual averages: direct == Moebius-decomposed for 10 functionals
[ok] divisor degrees: max total divisor degree 3 <= 2g+1 (and prime-sum inversion integral)""",
    (7, 1): """\
[ok] cardinality: 294 curves vs (q-1)q^(2g) = 294
[ok] functional equation: exact coefficient symmetry, all curves
[ok] riemann hypothesis: root magnitudes within 1e-9 of q^(-1/2), all curves
[ok] dual trace paths: explicit sums == Newton power sums (n <= 4), all curves
[ok] engine agreement: vectorized pipeline == per-curve path, all curves
[ok] eigenphase pairing: 2g phases, closed under negation, all curves
[ok] trace reconstruction: phases reproduce s_n to 1e-9 q^(n/2), all curves
[ok] unitarity bound: |s_n| <= 2g q^(n/2), all curves
[ok] prime-sum bound: |n c_n| <= (2g+2) q^(n/2), all curves
[ok] power decomposition: prime+square+higher == -s_k, all curves
[ok] point counts: direct == q^n + 1 - s_n (n <= 3), all curves
[ok] dual averages: direct == Moebius-decomposed for 10 functionals
[ok] divisor degrees: max total divisor degree 3 <= 2g+1 (and prime-sum inversion integral)""",
    # both cost guards: 4088 primes through degree 5 (23632 through 6), and
    # 14406 curves x (4088 primes + 2801 monic B) past 2^25 pairs
    (7, 2): """\
[ok] cardinality: 14406 curves vs (q-1)q^(2g) = 14406
[ok] functional equation: exact coefficient symmetry, every 36th curve
[ok] riemann hypothesis: root magnitudes within 1e-9 of q^(-1/2), every 36th curve
[ok] dual trace paths: explicit sums == Newton power sums (n <= 5), every 36th curve
[ok] engine agreement: vectorized pipeline == per-curve path, every 36th curve
[ok] eigenphase pairing: 2g phases, closed under negation, every 36th curve
[ok] trace reconstruction: phases reproduce s_n to 1e-9 q^(n/2), every 36th curve
[ok] unitarity bound: |s_n| <= 2g q^(n/2), every 36th curve
[ok] prime-sum bound: |n c_n| <= (2g+2) q^(n/2), every 36th curve
[ok] power decomposition: prime+square+higher == -s_k, every 36th curve
[ok] point counts: direct == q^n + 1 - s_n (n <= 3), every 36th curve
[ok] dual averages: direct == Moebius-decomposed for 10 functionals
[ok] divisor degrees: max total divisor degree 5 <= 2g+1 (and prime-sum inversion integral)""",
}


@pytest.mark.parametrize("q,g", sorted(VERIFY_LINES))
def test_verify_lines_pinned(q, g):
    result = harness.verify_suite(q, g)
    assert result.ok
    assert "\n".join(result.lines()) == VERIFY_LINES[q, g]


def test_verify_lines_independent_of_the_pass_size(monkeypatch):
    # 32 primes through degree 4, 14 through degree 3: the 18 curves go
    # through in passes of 6, the battery's 27 moduli in passes of 14
    monkeypatch.setattr(harness, "PAIRS_PER_PASS", 200)
    assert "\n".join(harness.verify_suite(3, 1).lines()) == VERIFY_LINES[3, 1]


def test_verify_explicit_depth_bounded_by_prime_count(monkeypatch):
    # 32 primes of degree <= 4 at q = 3: the explicit sums reach n = 4 at a
    # bound of 32 and stop at n = 3 below it
    monkeypatch.setattr(harness, "EXPLICIT_PRIMES", 32)
    assert "\n".join(harness.verify_suite(3, 1).lines()) == VERIFY_LINES[3, 1]
    monkeypatch.setattr(harness, "EXPLICIT_PRIMES", 31)
    assert "\n".join(harness.verify_suite(3, 1).lines()) == VERIFY_LINES[3, 1].replace(
        "Newton power sums (n <= 4)", "Newton power sums (n <= 3)")


def test_verify_falls_back_to_the_stride_sample_past_the_pair_bound(monkeypatch):
    # (5, 2): 2500 curves x (3409 primes of degree <= 6 + 781 monic B of
    # degree <= 4) pairs; one pair over the bound samples every 6th curve
    monkeypatch.setattr(harness, "EXHAUSTIVE_PAIRS", 2500 * (3409 + 781) - 1)
    result = harness.verify_suite(5, 2)
    assert result.ok
    lines = result.lines()
    assert not any("all curves" in line for line in lines)
    assert sum(line.endswith(", every 6th curve") for line in lines) == 10
    assert "[ok] dual trace paths: explicit sums == Newton power sums (n <= 6), " \
           "every 6th curve" in lines


@pytest.mark.parametrize("q", [7, 11])
def test_battery_averages_agree_beyond_small_q(q):
    spec = ens.EnsembleSpec(q, 1)
    names, tables = zip(*harness._battery(q, 1))
    direct = ens.ensemble_average(spec, tables)
    assert direct == ens.moebius_decomposed_average(spec, tables)
    assert direct[names.index("one")] == 1 and direct[names.index("chi(x)")] == 0


def test_a_flipped_kernel_symbol_fails_the_dual_trace_paths(tmp_path, capsys, monkeypatch):
    # flip (Q/P) for curve 5 and the first degree-4 prime: at q = 3, g = 1 only
    # the batched prime pass reaches degree 4 (the Dirichlet sums stop at 2;
    # the dual-average battery reads residue-field characters, not the kernel)
    Q = ens.compute_ensemble_data(3, 1, 4).coeffs[5]
    P = np.array(pf.get_prime_table(3, 4).first_irreducible(4))
    kernel = lf.jacobi_symbols

    def flipped(B, A, q):
        out = kernel(B, A, q)
        if A.shape[-1] == len(P):
            out[(B == Q).all(axis=-1) & (A == P).all(axis=-1)] *= -1
        return out

    monkeypatch.setattr(lf, "jacobi_symbols", flipped)
    line = ("[FAIL] dual trace paths: explicit sums == Newton power sums (n <= 4), all curves; "
            "1 of 18 failed, first curve 5: explicit vs Newton mismatch")
    assert line in harness.verify_suite(3, 1).lines()
    assert run_cli(["verify", "--q", "3", "--g", "1", "--cache-dir", str(tmp_path / "cache"),
                    "--out", str(tmp_path)]) == 1
    assert line in [ln.strip() for ln in capsys.readouterr().out.splitlines()]


def test_a_flipped_character_fails_the_point_counts(tmp_path, capsys, monkeypatch,
                                                   fresh_prime_residues):
    # flip chi(1) in F_9: at q = 3, g = 1 the point counts and the dual-average
    # battery read a degree-2 character table (the engine's primes stop at
    # degree g = 1); the battery compares two averages of the same tables, so
    # only the point counts fail
    init = pf.ResidueField.__init__

    def flipped(field, prime, q):
        init(field, prime, q)
        if field.size == 9:
            field.chars[np.flatnonzero(field.chars)[0]] *= -1

    monkeypatch.setattr(pf.ResidueField, "__init__", flipped)
    line = ("[FAIL] point counts: direct == q^n + 1 - s_n (n <= 3), all curves; "
            "13 of 18 failed, first curve 0: point count mismatch at n=2")
    lines = harness.verify_suite(3, 1).lines()
    assert line in lines
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [line]
    assert run_cli(["verify", "--q", "3", "--g", "1", "--cache-dir", str(tmp_path / "cache"),
                    "--out", str(tmp_path)]) == 1
    assert line in [ln.strip() for ln in capsys.readouterr().out.splitlines()]


def test_a_corrupted_phase_row_fails_only_the_reconstruction(tmp_path, capsys, monkeypatch):
    # stretch curve 5's phases away from zero: still closed under negation,
    # but no longer the roots of its L-polynomial
    real = harness.eigenphases

    def stretched(A, q):
        theta, errors = real(A, q)
        theta = theta.copy()
        theta[5] = np.sign(theta[5]) * (np.abs(theta[5]) + 0.25)
        return theta, errors

    monkeypatch.setattr(harness, "eigenphases", stretched)
    line = ("[FAIL] trace reconstruction: phases reproduce s_n to 1e-9 q^(n/2), all curves; "
            "1 of 18 failed, first curve 5: phase-trace reconstruction off at n=1")
    lines = harness.verify_suite(3, 1).lines()
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [line]
    assert run_cli(["verify", "--q", "3", "--g", "1", "--cache-dir", str(tmp_path / "cache"),
                    "--out", str(tmp_path)]) == 1
    assert line in [ln.strip() for ln in capsys.readouterr().out.splitlines()]


def test_an_off_circle_row_fails_only_its_riemann_hypothesis_check(monkeypatch):
    # curve 7's completed row replaced by 1 + 4u + 3u^2 = (1 + u)(1 + 3u) in
    # the phase pass alone: its root u = -1 is off the circle |u| = 3^(-1/2)
    real = harness.eigenphases

    def off_circle(A, q):
        A = A.copy()
        A[7] = (1, 4, 3)
        return real(A, q)

    monkeypatch.setattr(harness, "eigenphases", off_circle)
    lines = harness.verify_suite(3, 1).lines()
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [
        "[FAIL] riemann hypothesis: root magnitudes within 1e-9 of q^(-1/2), all curves; "
        "1 of 18 failed, first curve 7: root magnitude 1 vs 0.57735026919 exceeds tolerance"]


@pytest.mark.parametrize("column,value,detail", [
    (2, 6, "coefficient symmetry fails at beta=2: 6 != 3"),
    (0, 2, "constant coefficient must be 1"),
])
def test_a_corrupted_dirichlet_row_fails_the_functional_equation(monkeypatch, column, value,
                                                                 detail):
    # curve 0's Dirichlet row breaks the symmetry A_2 = q A_0; its phases
    # then leave the circle, but a row that fails the functional equation
    # is checked no further
    real = harness.dirichlet_coefficients

    def corrupted(Q, q, strategy="funceq"):
        A = real(Q, q, strategy=strategy)
        A[0, column] = value
        return A

    monkeypatch.setattr(harness, "dirichlet_coefficients", corrupted)
    lines = harness.verify_suite(3, 1).lines()
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [
        "[FAIL] functional equation: exact coefficient symmetry, all curves; "
        f"1 of 18 failed, first curve 0: {detail}"]


def test_a_pass_with_no_row_past_the_functional_equation(monkeypatch):
    # every Dirichlet row corrupted: nothing is left for the later checks
    real = harness.dirichlet_coefficients

    def corrupted(Q, q, strategy="funceq"):
        A = real(Q, q, strategy=strategy)
        A[:, 2] = 6
        return A

    monkeypatch.setattr(harness, "dirichlet_coefficients", corrupted)
    lines = harness.verify_suite(3, 1).lines()
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [
        "[FAIL] functional equation: exact coefficient symmetry, all curves; "
        "18 of 18 failed, first curve 0: coefficient symmetry fails at beta=2: 6 != 3"]


def test_a_functional_equation_failure_leaves_the_later_counts(monkeypatch,
                                                               fresh_prime_residues):
    # the flipped F_9 character alone fails the point counts of 13 of the 18
    # curves, first curve 0; with curve 0's Dirichlet row corrupted too,
    # curve 0 drops out of the counts: 12 of 17, first curve 1
    real = harness.dirichlet_coefficients

    def corrupted(Q, q, strategy="funceq"):
        A = real(Q, q, strategy=strategy)
        A[0, 2] += 3
        return A

    init = pf.ResidueField.__init__

    def flipped(field, prime, q):
        init(field, prime, q)
        if field.size == 9:
            field.chars[np.flatnonzero(field.chars)[0]] *= -1

    monkeypatch.setattr(harness, "dirichlet_coefficients", corrupted)
    monkeypatch.setattr(pf.ResidueField, "__init__", flipped)
    lines = harness.verify_suite(3, 1).lines()
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [
        "[FAIL] functional equation: exact coefficient symmetry, all curves; "
        "1 of 18 failed, first curve 0: coefficient symmetry fails at beta=2: 6 != 3",
        "[FAIL] point counts: direct == q^n + 1 - s_n (n <= 3), all curves; "
        "12 of 17 failed, first curve 1: point count mismatch at n=2"]


def test_folded_phases_fail_only_the_pairing(monkeypatch):
    # curve 5's phases (-t, t) become (-t, -t): no longer closed under
    # negation, but sum_j cos(n theta_j) and so the reconstruction is unchanged
    real = harness.eigenphases

    def folded(A, q):
        theta, errors = real(A, q)
        theta = theta.copy()
        theta[5] = -np.abs(theta[5])
        return theta, errors

    monkeypatch.setattr(harness, "eigenphases", folded)
    lines = harness.verify_suite(3, 1).lines()
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [
        "[FAIL] eigenphase pairing: 2g phases, closed under negation, all curves; "
        "1 of 18 failed, first curve 5: phases not negation-closed"]


def test_a_flipped_cubic_symbol_fails_the_power_decomposition(monkeypatch):
    # flip (Q/P) for curve 5 and the first cubic prime: the Dirichlet sums
    # stop at degree 2g = 2, so only the prime-symbol side moves, first at k = 3
    Q = ens.compute_ensemble_data(3, 1, 4).coeffs[5]
    P = np.array(pf.get_prime_table(3, 3).first_irreducible(3))
    kernel = lf.jacobi_symbols

    def flipped(B, A, q):
        out = kernel(B, A, q)
        if A.shape[-1] == len(P):
            out[(B == Q).all(axis=-1) & (A == P).all(axis=-1)] *= -1
        return out

    monkeypatch.setattr(lf, "jacobi_symbols", flipped)
    lines = harness.verify_suite(3, 1).lines()
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [
        "[FAIL] dual trace paths: explicit sums == Newton power sums (n <= 4), all curves; "
        "1 of 18 failed, first curve 5: explicit vs Newton mismatch",
        "[FAIL] power decomposition: prime+square+higher == -s_k, all curves; "
        "1 of 18 failed, first curve 5: decomposition identity fails at k=3"]


class TestReports:
    def test_moment_csv_deterministic_modulo_timestamp(self, tmp_path):
        cache = str(tmp_path / "cache")
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for out in (out1, out2):
            assert run_cli(["moment", "--q", "3", "--g", "1", "--spec", "(2,1)",
                            "--cache-dir", cache, "--out", out]) == 0
        f1 = os.path.join(out1, "moment_q3_g1.csv")
        f2 = os.path.join(out2, "moment_q3_g1.csv")
        assert strip_timestamp(f1) == strip_timestamp(f2)

    def test_json_reports_byte_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        out1, out2 = str(tmp_path / "j1"), str(tmp_path / "j2")
        for out in (out1, out2):
            assert run_cli(["moment", "--q", "3", "--g", "1", "--spec", "(2,1)",
                            "--format", "json", "--cache-dir", cache, "--out", out]) == 0
        read = lambda p: Path(p, "moment_q3_g1.json").read_bytes()
        assert read(out1) == read(out2)
        rows = json.loads(read(out1))
        # hand-derived over the 18 curves: <sum chi(P) over quadratic P> = 1/2
        # and <sum chi(P^2) over linear P> = 7/3, so <tr^2> = -(2/2 + 7/3)/3
        assert rows[0]["empirical_exact"] == "-10/9"

    def test_workers_byte_identical(self, tmp_path):
        # 62,500 curves, so the traces span several kernel chunks
        outputs = []
        for workers in (1, 2):
            base = tmp_path / f"w{workers}"
            assert run_cli(["moment", "--q", "5", "--g", "3", "--N", "8",
                            "--spec", "(8,1)", "--spec", "(1,1);(6,2)",
                            "--workers", str(workers), "--format", "json",
                            "--cache-dir", str(base / "cache"),
                            "--out", str(base / "reports")]) == 0
            outputs.append({p.relative_to(base).as_posix(): p.read_bytes()
                            for p in sorted(base.rglob("*")) if p.is_file()})
        assert sorted(outputs[0]) == ["cache/traces_q5_g3_N8.bin", "reports/moment_q5_g3.json"]
        assert outputs[0] == outputs[1]

    def test_warm_cache_matches_cold(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold, _ = harness.load_or_compute_data(3, 2, 6, cache_dir=cache)
        warm, from_cache = harness.load_or_compute_data(3, 2, 6, cache_dir=cache)
        assert from_cache
        assert np.array_equal(cold.s, warm.s)
        assert np.array_equal(cold.coeffs, warm.coeffs)

    def test_deeper_cache_sliced(self, tmp_path):
        cache = str(tmp_path / "cache")
        harness.load_or_compute_data(3, 1, 6, cache_dir=cache)
        data, from_cache = harness.load_or_compute_data(3, 1, 3, cache_dir=cache)
        assert from_cache and data.N == 3 and data.s.shape[1] == 3

    def test_deeper_cache_keeps_the_reports(self, tmp_path):
        deep = str(tmp_path / "deep")
        assert run_cli(["moment", "--q", "3", "--g", "2", "--N", "8",
                        "--cache-dir", deep, "--out", str(tmp_path / "fill")]) == 0
        for command in (["moment", "--N", "4", "--spec", "(1,2)", "--spec", "(4,2)",
                         "--spec", "(1,1);(2,1)"],
                        ["linstat", "--tf", "triangular:1"],
                        ["decompose"]):
            reports = []
            for cache in (deep, str(tmp_path / f"empty-{command[0]}")):
                out = tmp_path / f"{command[0]}-{len(reports)}"
                assert run_cli(command + ["--q", "3", "--g", "2", "--format", "json",
                                          "--cache-dir", cache, "--out", str(out)]) == 0
                reports.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert len(reports[0]) == 1 and reports[0] == reports[1]
        assert os.listdir(deep) == ["traces_q3_g2_N8.bin"]  # every read came from it

    def test_lfun_rows(self, tmp_path, capsys):
        out = str(tmp_path / "reports")
        code = run_cli(["lfun", "--q", "3", "--g", "1",
                        "--cache-dir", str(tmp_path / "cache"), "--out", out])
        assert code == 0
        with open(os.path.join(out, "lfun_q3_g1.csv")) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header.split(",")[:5] == ["q", "g", "c0", "c1", "c2"]
        assert len(rows) == 18
        # the example curve row carries its completed coefficients and traces
        example = [r for r in rows if r.startswith("3,1,1,2,0,1,")]
        assert example and ",1,3,3," in example[0]

    def test_dump_cache_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        harness.load_or_compute_data(3, 1, 4, cache_dir=cache)
        path = cachemod.trace_cache_path(cache, 3, 1, 4)
        out = str(tmp_path / "dumps")
        assert run_cli(["dump-cache", "--path", path, "--out", out]) == 0
        with open(os.path.join(out, "traces_q3_g1_N4.csv")) as fh:
            rows = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
        assert len(rows) == 19  # header + 18 curves

    def test_dump_cache_json_holds_the_csv_rows(self, tmp_path):
        cache = str(tmp_path / "cache")
        harness.load_or_compute_data(3, 1, 4, cache_dir=cache)
        path = cachemod.trace_cache_path(cache, 3, 1, 4)
        out = str(tmp_path / "dumps")
        assert run_cli(["dump-cache", "--path", path, "--out", out]) == 0
        assert run_cli(["dump-cache", "--path", path, "--out", out, "--format", "json"]) == 0
        with open(os.path.join(out, "traces_q3_g1_N4.csv")) as fh:
            header, *rows = [ln.split(",") for ln in fh.read().splitlines()
                             if ln and not ln.startswith("#")]
        with open(os.path.join(out, "traces_q3_g1_N4.json")) as fh:
            records = json.load(fh)
        assert [{k: int(v) for k, v in zip(header, row)} for row in rows] == records

    def test_primes_dump(self, tmp_path, capsys):
        assert run_cli(["primes", "--q", "3", "--N", "3", "--dump",
                        "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "pi_3(3) = 8" in out
        assert "0,1" in out  # the prime x dumped as its coefficient list
        assert not (tmp_path / "cache").exists()  # tables are built, never stored

    def test_cache_shorter_than_header_rebuilt(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / "traces_q3_g1_N4.bin"
        path.write_bytes(b"HFTR\x01\x00")
        out = str(tmp_path / "reports")
        assert run_cli(["dump-cache", "--path", str(path), "--out", out]) == 2
        assert run_cli(["moment", "--q", "3", "--g", "1", "--N", "4",
                        "--cache-dir", str(cache), "--out", out]) == 0
        assert cachemod.read_trace_cache(str(path))[:3] == (3, 1, 4)

    @pytest.mark.parametrize("g,N,count", [(2 ** 31, 4, 18), (1, 2 ** 32 - 1, 18),
                                           (2 ** 31, 4, 0)])
    def test_cache_header_beyond_any_record_size_rebuilt(self, tmp_path, g, N, count):
        # the record size 2g+2 + 8N of such a header fits no numpy dtype
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / "traces_q3_g1_N4.bin"
        path.write_bytes(cachemod.HEADER.pack(cachemod.TR_MAGIC, cachemod.VERSION, 3, g, N,
                                              count) + bytes(count * 36))
        out = str(tmp_path / "reports")
        assert run_cli(["dump-cache", "--path", str(path), "--out", out]) == 2
        assert run_cli(["moment", "--q", "3", "--g", "1", "--N", "4",
                        "--cache-dir", str(cache), "--out", out]) == 0
        assert cachemod.read_trace_cache(str(path))[:3] == (3, 1, 4)

    def test_dump_cache_rejects_other_files(self, tmp_path):
        path = tmp_path / "ptable_q3_d4.bin"
        path.write_bytes(b"HFPT" + bytes(12))
        assert run_cli(["dump-cache", "--path", str(path), "--out", str(tmp_path)]) == 2

    def test_charsum_and_sigma_commands(self, tmp_path, capsys):
        out = str(tmp_path / "reports")
        assert run_cli(["charsum", "--q", "3", "--degrees", "1,2",
                        "--beta-max", "4", "--out", out]) == 0
        assert run_cli(["sigma", "--q", "3", "--degrees", "2,3",
                        "--alpha-max", "3", "--out", out]) == 0
        assert run_cli(["rmt", "--spec", "(2,2)", "--g", "2", "--out", out]) == 0
        assert run_cli(["linstat", "--q", "3", "--g", "2", "--tf", "triangular:3",
                        "--moments", "2", "--cache-dir", str(tmp_path / "cache"),
                        "--out", out]) == 0

    def test_custom_tf_through_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tf.bump = 0:1,-2;1/2\n")
        out = str(tmp_path / "reports")
        code = run_cli(["linstat", "--config", str(cfg), "--q", "3", "--g", "2",
                        "--tf", "bump", "--moments", "2",
                        "--cache-dir", str(tmp_path / "cache"), "--out", out])
        assert code == 0
        assert "bump" in capsys.readouterr().out
