import contextlib
import csv
import io
import json
import math
import os
import tracemalloc
from argparse import Namespace
from fractions import Fraction as F
from itertools import count
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haltonclt import cli, temporal
from haltonclt.cli import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    build_config,
    emit_histogram,
    main,
    parse_config_file,
    run_clt,
    run_verify,
    sample_point,
)
from haltonclt.discrepancy import BoxTarget, DiscrepancySeries, discrepancy_series
from haltonclt.kernel import MILLER_RABIN_LIMIT
from haltonclt.odometer import DigitPoint
from haltonclt.rng import CounterRng

BIG = 2**70 + 1


def test_sample_point_deterministic():
    cfg = ExperimentConfig(primes=(2, 3), y=(F(1, 3), F(2, 5)), n=256, seed=9)
    a = sample_point(cfg)
    b = sample_point(cfg)
    assert a.values == b.values and a.depths == b.depths


def test_sample_point_guard_invariant():
    # sample_point's floor of 1, then per-coordinate floors: 12 and 6 lie above
    # the least depths 9 and 4 with p**D >= 400 for p = 2 and 5, 1 below 6 for 3
    for seed in range(20):
        cfg = ExperimentConfig(primes=(2, 3, 5), y=(F(1, 3),) * 3, n=100, seed=seed)
        floored = DigitPoint.sample(cfg.basis, 100, CounterRng(seed), (12, 1, 6))
        for x, floors in ((sample_point(cfg), (1, 1, 1)), (floored, (12, 1, 6))):
            assert x.guard == 100
            for p, d, v, floor in zip((2, 3, 5), x.depths, x.values, floors):
                assert d == max(floor, next(e for e in count(1) if p**e >= 4 * 100))
                assert 100 <= v < p**d - 100
        assert floored.depths == (12, 6, 6)


def test_sample_point_seeds_distinct():
    seen = set()
    for seed in range(100):
        cfg = ExperimentConfig(
            primes=(2, 3, 5), y=(F(1, 3),) * 3, n=1024, seed=seed
        )
        seen.add(sample_point(cfg).values)
    assert len(seen) == 100


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(primes=(2,), y=(F(1, 3), F(1, 5)))
    with pytest.raises(ConfigError):
        ExperimentConfig(y=(F(3, 2),))
    with pytest.raises(ConfigError):
        ExperimentConfig(n=1)
    # base-2 rational corner rejected only under the feasibility guarantee
    ExperimentConfig(y=(F(1, 4),))
    with pytest.raises(ConfigError):
        ExperimentConfig(y=(F(1, 4),), require_feasible=True)


def test_require_feasible_accepts_corner_sharing_a_factor_with_the_base():
    # 1/6 = .0(01) in base 2 and 5/12 = .1(02) in base 3 both have
    # qualifying positions in their period, so the guarantee holds
    ExperimentConfig(y=(F(1, 6),), require_feasible=True)
    ExperimentConfig(primes=(3,), y=(F(5, 12),), require_feasible=True)


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\nprimes = 2, 3\ny = 1/5, 2/5\nN = 128\nseed = 5\nkappa1 = 2/3\n"
    )
    entries = parse_config_file(cfg_file)
    assert entries["y"] == "1/5, 2/5"

    class Args:
        config = str(cfg_file)
        seed = 11
        N = None
        out = None
        primes = None
        y = None

    cfg = build_config(Args())
    assert cfg.primes == (2, 3)
    assert cfg.y == (F(1, 5), F(2, 5))
    assert cfg.n == 128
    assert cfg.seed == 11  # flag wins over file


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # "n" is not "N", and "depth" is a removed key; neither may be ignored
    for line in ("n = 64", "depth = 9"):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"primes = 2\ny = 1/3\n{line}\n")
        assert main(["clt", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown config key")


def test_config_rejects_empty_values(tmp_path, monkeypatch, capsys):
    # an empty out would be Path(""), the working directory
    monkeypatch.chdir(tmp_path)
    argvs = [["clt", "--primes", "2", "--y", "1/3", "--N", "64", "--out", ""]]
    for key in CONFIG_KEYS:
        cfg_file = tmp_path / f"{key}.cfg"
        lines = {"primes": "2", "y": "1/3", "N": "64", key: ""}
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        argvs.append(["clt", "--config", str(cfg_file)])
    for argv in argvs:
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".cfg"] * len(CONFIG_KEYS)


def test_require_feasible_parses_strictly(tmp_path, capsys):
    def config_with(word):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"primes = 2\ny = 1/4\nrequire_feasible = {word}\n")
        return cfg_file

    for word in ("false", "No", "0", "FALSE"):
        args = Namespace(config=str(config_with(word)))
        assert build_config(args).require_feasible is False
    # 1/4 fails the digit condition, so every true word refuses it, and so
    # does a word that is neither
    for word in ("true", "Yes", "1", "TRUE", "ture", "on"):
        assert main(["clt", "--config", str(config_with(word))]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    capsys.readouterr()


def test_run_clt_smallest_horizon():
    cfg = ExperimentConfig(primes=(2,), y=(F(1, 3),), n=2, seed=1)
    record = run_clt(cfg)
    assert record["stats"]["N"] == 2
    assert record["version"]


def test_run_clt_deterministic_record(tmp_path):
    cfg = dict(primes=(2,), y=(F(1, 3),), n=512, seed=42)
    a = run_clt(ExperimentConfig(**cfg))
    b = run_clt(ExperimentConfig(**cfg))
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_record_json_round_trip(tmp_path):
    cfg = ExperimentConfig(
        primes=(2, 3), y=(F(1, 5), F(2, 5)), n=256, seed=7, out=tmp_path
    )
    record = run_clt(cfg)
    loaded = json.loads((tmp_path / "record.json").read_text())
    assert json.dumps(loaded, sort_keys=True) == json.dumps(record, sort_keys=True)
    assert set(loaded) == {
        "config", "point", "stats", "condition", "window", "timings", "version",
    }


def test_series_csv_round_trip(tmp_path):
    from haltonclt.cli import read_series_csv

    cfg = ExperimentConfig(primes=(2,), y=(F(1, 3),), n=64, seed=3, out=tmp_path)
    run_clt(cfg)
    rows = read_series_csv(tmp_path / "series.csv")
    assert len(rows) == 64
    assert rows[0]["k"] == "0" and rows[0]["count"] == "0"
    for row in rows:
        num, den = int(row["discrepancy_num"]), int(row["discrepancy_den"])
        assert float(row["discrepancy_float"]) == num / den


def test_infeasible_corner_downgrades_window():
    record = run_clt(ExperimentConfig(primes=(2,), y=(F(1, 4),), n=64, seed=1))
    assert record["window"] == {"applicable": False}
    assert record["stats"]["ks_distance"] >= 0


def test_identically_zero_series_runs_gracefully():
    # y = 1/2 balances every window exactly, so D(k) == 0 for all k
    record = run_clt(ExperimentConfig(primes=(2,), y=(F(1, 2),), n=64, seed=1))
    assert record["stats"]["H_ddot"] == 0
    assert math.isnan(record["stats"]["ks_distance"])
    assert record["window"] == {"applicable": False}


def test_emit_histogram_zero_samples():
    rows = emit_histogram(np.zeros(50), 8)
    assert len(rows) == 8
    observed = [r[2] for r in rows]
    assert sum(observed) == 50
    hot = [r for r in rows if r[2] > 0]
    assert len(hot) == 1 and hot[0][0] <= 0 < hot[0][1]


def test_emit_histogram_conservation_and_expected_total():
    rng = np.random.default_rng(2)
    z = rng.normal(size=5000) * 1.8  # some samples outside [-4, 4]
    rows = emit_histogram(z, 16)
    assert sum(r[2] for r in rows) == 5000
    assert abs(sum(r[3] for r in rows) - 5000) <= 1e-3 * 5000


def test_emit_histogram_weights_match_repeated_samples():
    rng = np.random.default_rng(3)
    values = rng.normal(size=40) * 2.5  # some values outside [-4, 4]
    weights = rng.integers(0, 50, size=40)
    rows = emit_histogram(values, 16, weights=weights)
    assert rows == emit_histogram(np.repeat(values, weights), 16)
    assert sum(r[2] for r in rows) == weights.sum()


def test_emit_histogram_bad_bins():
    with pytest.raises(ValueError):
        emit_histogram(np.zeros(4), 1)


def test_run_verify_unknown_suite():
    assert run_verify("nonsense") == 2


def test_run_verify_suites_pass(tmp_path):
    for suite in ("fast-vs-naive", "roundtrip"):
        assert run_verify(suite, seed=1, out=tmp_path) == 0
        assert (tmp_path / f"verify_{suite}.txt").exists()


def test_main_clt_and_histogram(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        ["clt", "--primes", "2", "--y", "1/3", "--N", "128", "--seed", "4",
         "--out", str(out)]
    )
    assert rc == 0
    assert (out / "record.json").exists()
    assert (out / "series.csv").exists()
    rc = main(["histogram", "--out", str(out), "--bins", "12"])
    assert rc == 0
    lines = (out / "histogram.csv").read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,observed,expected"
    assert len(lines) == 13


def test_main_histogram_of_zero_series_exit_code(tmp_path, capsys):
    # y = 1/2 gives H_ddot = 0, so there is nothing to normalise by
    out = tmp_path / "run"
    rc = main(["clt", "--primes", "2", "--y", "1/2", "--N", "64", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert main(["histogram", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (out / "histogram.csv").exists()


def histogram_reference(outdir, bins):
    """histogram.csv as read from series.csv: column 4 over H_ddot, per row."""
    h_ddot = json.loads((outdir / "record.json").read_text())["stats"]["H_ddot"]
    samples = np.loadtxt(
        outdir / "series.csv", delimiter=",", skiprows=1, usecols=4
    ) / h_ddot
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["bin_left", "bin_right", "observed", "expected"])
    writer.writerows(emit_histogram(samples, bins))
    return buf.getvalue().encode()


# (primes, y, N, seed); the 2^70+1 corner has every scaled value distinct
# and stored as Python ints
HISTOGRAM_CASES = [
    ((2,), ("1/3",), 2**16 + 3, 42),
    ((2, 3), ("1/5", "2/5"), 2**14 + 1, 7),
    ((2, 3, 5), ("1/3", "2/5", "3/7"), 4099, 3),
    ((2,), (f"{BIG // 3}/{BIG}",), 4099, 1),
    ((3,), ("5/12",), 3**9 + 2, 5),
]


@pytest.mark.parametrize(
    "primes,y,n,seed", HISTOGRAM_CASES, ids=["1d", "2d", "3d", "1d-2^70+1", "base3"]
)
def test_histogram_from_record_matches_series_csv_reference(
    tmp_path, capsys, primes, y, n, seed
):
    out = tmp_path / "run"
    assert main([
        "clt", "--primes", ",".join(map(str, primes)), "--y", ",".join(y),
        "--N", str(n), "--seed", str(seed), "--out", str(out),
    ]) == 0
    expected = histogram_reference(out, 21)
    # histogram reads record.json only
    (out / "series.csv").unlink()
    assert main(["histogram", "--out", str(out), "--bins", "21"]) == 0
    assert (out / "histogram.csv").read_bytes() == expected


def _drop_point_values(record):
    del record["point"]["values"]


def _guard_below_n(record):
    record["point"]["guard"] = record["config"]["N"] - 1


def _h_ddot_next_float(record):
    record["stats"]["H_ddot"] = math.nextafter(record["stats"]["H_ddot"], math.inf)


@pytest.mark.parametrize(
    "corrupt", [_drop_point_values, _guard_below_n, _h_ddot_next_float],
    ids=["missing-key", "guard-below-N", "H_ddot-last-digit"],
)
def test_main_histogram_malformed_record_exit_code(tmp_path, capsys, corrupt):
    out = tmp_path / "run"
    rc = main(["clt", "--primes", "2", "--y", "1/3", "--N", "256", "--out", str(out)])
    assert rc == 0
    record = json.loads((out / "record.json").read_text())
    corrupt(record)
    (out / "record.json").write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["histogram", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (out / "histogram.csv").exists()


def test_main_histogram_heap_peak_within_run_clt(tmp_path, capsys):
    # histogram rebuilds the series and bins its distinct values, weighted,
    # so its traced heap peak stays within that of the run it describes
    cfg = dict(primes=(2,), y=(F(1, 3),), n=2**18, seed=42)
    run_clt(ExperimentConfig(**cfg, out=tmp_path))
    peaks = []
    for call in (
        lambda: run_clt(ExperimentConfig(**cfg)),
        lambda: main(["histogram", "--out", str(tmp_path)]),
    ):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


def test_main_halton_stdout(capsys):
    assert main(["halton", "--N", "3", "--primes", "2,3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split("\t") == ["1", "1/2", "1/3"]


def test_main_halton_negative_n_exit_code(capsys):
    assert main(["halton", "--N", "-3"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


def test_main_condition_exit_codes():
    assert main(["condition", "--primes", "2", "--y", "1/3"]) == 0
    assert main(["condition", "--primes", "2", "--y", "1/2"]) == 1


def test_main_config_error_exit_code(capsys):
    assert main(["clt", "--primes", "2", "--y", "3/2"]) == 2


def test_main_prime_past_the_primality_limit_exit_code(capsys):
    assert main(["clt", "--primes", str(MILLER_RABIN_LIMIT), "--y", "1/3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


CLT_ARGS = ["clt", "--primes", "2", "--y", "1/3", "--N", "256", "--seed", "3"]


def test_clt_out_replaces_its_files_instead_of_truncating_them(tmp_path, capsys):
    # handles open on the first run's files still read that run's bytes, so
    # the second run wrote new files rather than over the old ones; the
    # handles also keep the old inodes from being reused by the new files
    names = ("series.csv", "record.json", "histogram.csv")
    assert main([*CLT_ARGS, "--out", str(tmp_path)]) == 0
    assert main(["histogram", "--out", str(tmp_path)]) == 0
    first = {name: (tmp_path / name).read_bytes() for name in names}
    with contextlib.ExitStack() as stack:
        held = {name: stack.enter_context(open(tmp_path / name, "rb")) for name in names}
        assert main([*CLT_ARGS[:-1], "4", "--out", str(tmp_path)]) == 0
        assert main(["histogram", "--out", str(tmp_path)]) == 0
        for name in names:
            assert held[name].read() == first[name], name
            assert os.fstat(held[name].fileno()).st_ino != (
                (tmp_path / name).stat().st_ino
            ), name
    assert (tmp_path / "series.csv").read_bytes() != first["series.csv"]


def test_clt_out_replaces_a_symlink_and_leaves_its_target(tmp_path, capsys):
    target = tmp_path / "elsewhere.csv"
    target.write_bytes(b"kept\n")
    out = tmp_path / "run"
    out.mkdir()
    (out / "series.csv").symlink_to(target)
    assert main([*CLT_ARGS, "--out", str(out)]) == 0
    assert not (out / "series.csv").is_symlink()
    assert (out / "series.csv").read_bytes().startswith(b"k,count,")
    assert target.read_bytes() == b"kept\n"


def test_clt_out_series_csv_directory_exit_code(tmp_path, capsys):
    (tmp_path / "series.csv").mkdir()
    assert main([*CLT_ARGS, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_only_series_csv_builds_the_value_index(tmp_path, monkeypatch, capsys):
    assert main([*CLT_ARGS, "--out", str(tmp_path)]) == 0

    def no_index(self, values):
        raise AssertionError("the N-long value index was built")

    monkeypatch.setattr(DiscrepancySeries, "value_index", no_index)
    run_clt(ExperimentConfig(primes=(2,), y=(F(1, 3),), n=256, seed=3))
    assert main(["histogram", "--out", str(tmp_path)]) == 0
    with pytest.raises(AssertionError, match="value index"):
        main([*CLT_ARGS, "--out", str(tmp_path / "again")])


def test_main_zero_denominator_exit_code(capsys):
    assert main(["clt", "--primes", "2", "--y", "1/0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_main_histogram_missing_dir_exit_code(tmp_path, capsys):
    assert main(["histogram", "--out", str(tmp_path / "missing")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_main_discrepancy(tmp_path):
    out = tmp_path / "d"
    rc = main(
        ["discrepancy", "--primes", "2", "--y", "1/3", "--N", "32",
         "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    assert (out / "series.csv").exists()


def test_discrepancy_and_clt_write_the_same_series_csv(tmp_path, capsys):
    # discrepancy builds its own value table; clt hands the moments' one over
    args = ["--primes", "2,3", "--y", "1/5,2/5", "--N", "3000", "--seed", "7"]
    assert main(["discrepancy", *args, "--out", str(tmp_path / "d")]) == 0
    assert main(["clt", *args, "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "d" / "series.csv").read_bytes() == (
        tmp_path / "c" / "series.csv"
    ).read_bytes()


@pytest.mark.parametrize("out", ["", " "])
def test_histogram_rejects_empty_out(tmp_path, monkeypatch, capsys, out):
    # an empty --out would be Path(""), the working directory, which here
    # holds a record.json
    assert main(
        ["clt", "--primes", "2", "--y", "1/3", "--N", "64", "--out", str(tmp_path)]
    ) == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["histogram", "--out", out]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "histogram.csv").exists()


def test_clt_checks_condition_before_series(monkeypatch, capsys):
    # 1/13 has base-2 period 12, past the patched cap, so clt must exit 2
    # before it builds the series
    def no_series(*args):
        raise AssertionError("series built before the digit condition was checked")

    monkeypatch.setattr(temporal, "MAX_PERIOD", 10)
    monkeypatch.setattr(cli, "discrepancy_series", no_series)
    assert main(["clt", "--primes", "2", "--y", "1/13", "--N", "64"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_histogram_checks_bins_before_series(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(["clt", "--primes", "2", "--y", "1/3", "--N", "64", "--out", str(out)]) == 0
    capsys.readouterr()

    def no_series(*args):
        raise AssertionError("series rebuilt before --bins was checked")

    monkeypatch.setattr(cli, "discrepancy_series", no_series)
    assert main(["histogram", "--out", str(out), "--bins", "1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (out / "histogram.csv").exists()


def test_run_clt_stage_timings(tmp_path):
    record = run_clt(
        ExperimentConfig(primes=(2,), y=(F(1, 3),), n=4096, seed=42, out=tmp_path)
    )
    timings = record["timings"]
    stages = (
        "condition_seconds", "series_seconds", "moments_seconds",
        "normalize_seconds", "csv_seconds",
    )
    assert set(timings) == {*stages, "peak_rss_mb", "peak_rss_is_own", "total_seconds"}
    assert all(timings[key] >= 0 for key in stages)
    assert sum(timings[key] for key in stages) <= timings["total_seconds"]
    assert timings["csv_seconds"] > 0 and timings["peak_rss_mb"] > 0
    written = json.loads((tmp_path / "record.json").read_text())
    assert written["timings"] == timings


def test_run_clt_peak_rss_after_a_larger_run_is_not_its_own():
    # ru_maxrss is the process's high-water mark: a small run after a large
    # one cannot raise it, so its peak_rss_mb is the large run's
    large = run_clt(ExperimentConfig(primes=(2,), y=(F(1, 3),), n=2**18, seed=42))
    small = run_clt(ExperimentConfig(primes=(2,), y=(F(1, 3),), n=2**10, seed=42))
    assert small["timings"]["peak_rss_is_own"] is False
    assert small["timings"]["peak_rss_mb"] >= large["timings"]["peak_rss_mb"]


def test_run_clt_heap_peak_per_step():
    # the traced heap peak of the in-memory path, per step of the series; it
    # sets the largest N that fits in memory
    n = 2**18
    tracemalloc.start()
    try:
        run_clt(ExperimentConfig(primes=(2,), y=(F(1, 3),), n=n, seed=42))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * n


def reference_series_csv(path, series):
    """One csv.writer row per k, each value computed on its own."""
    num, den = series.volume.numerator, series.volume.denominator
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "count", "discrepancy_num", "discrepancy_den", "discrepancy_float"]
        )
        for k in range(series.n):
            c = int(series.counts[k])
            d = c * den - 2 * k * num
            g = gcd(d, den)
            writer.writerow([k, c, d // g, den // g, repr(d / den)])


BLOCK_EDGE = 3 * cli.CSV_BLOCK_ROWS + 5


# (primes, y, N, seed, dtype of the scaled values)
WRITER_CASES = [
    ((2,), (F(1, 3),), BLOCK_EDGE, 42, np.int64),
    ((2, 3), (F(1, 5), F(2, 5)), BLOCK_EDGE, 7, np.int64),
    # den = 3^12 > 2N: every scaled value distinct, in int64
    ((2,), (F(1, 3**12),), cli.CSV_BLOCK_ROWS + 3, 2, np.int64),
    ((2,), (F(BIG // 3, BIG),), cli.CSV_BLOCK_ROWS + 3, 1, object),
]


@pytest.mark.parametrize(
    "primes,y,n,seed,dtype", WRITER_CASES, ids=["1d", "2d", "1d-3^12", "1d-2^70+1"]
)
def test_write_series_csv_matches_reference(tmp_path, primes, y, n, seed, dtype):
    cfg = ExperimentConfig(primes=primes, y=y, n=n, seed=seed)
    series = discrepancy_series(
        sample_point(cfg), BoxTarget.create(cfg.basis, cfg.y), n
    )
    assert series.scaled_values().dtype == dtype
    cli.write_series_csv(tmp_path / "fast.csv", series)
    reference_series_csv(tmp_path / "reference.csv", series)
    assert (tmp_path / "fast.csv").read_bytes() == (
        tmp_path / "reference.csv"
    ).read_bytes()


@st.composite
def writer_cases(draw):
    """(primes, y, N, seed, block rows) for a small series."""
    primes = draw(st.sampled_from([(2,), (3,), (2, 3)]))
    y = []
    for _ in primes:
        den = draw(st.integers(2, 1000))
        y.append(F(draw(st.integers(1, den - 1)), den))
    n = draw(st.integers(2, 1500))
    seed = draw(st.integers(0, 2**64 - 1))
    block = draw(st.sampled_from([1, 3, 10, 100, 1000, cli.CSV_BLOCK_ROWS]))
    return primes, tuple(y), n, seed, block


# block edges at 10, 100 and 1000 meet k's digit carries; blocks of one row
# put every carry of the count column at an edge too
@given(writer_cases())
@example(((2,), (F(1, 2),), 2, 0, 1))  # dyadic: every D(k) = 0
@example(((2,), (F(1, 997),), 1200, 5, 100))  # mostly count-0 rows
@example(((2,), (F(9, 10),), 1500, 3, 1))  # counts cross 9, 99 and 999
@example(((2,), (F(9, 10),), 1500, 3, 10))
@example(((2,), (F(9, 10),), 1500, 3, 1000))
@settings(max_examples=100, deadline=None)
def test_write_series_csv_matches_reference_on_small_series(tmp_path_factory, case):
    primes, y, n, seed, block = case
    cfg = ExperimentConfig(primes=primes, y=y, n=n, seed=seed)
    series = discrepancy_series(
        sample_point(cfg), BoxTarget.create(cfg.basis, cfg.y), n
    )
    out = tmp_path_factory.mktemp("writer")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "CSV_BLOCK_ROWS", block)
        cli.write_series_csv(out / "fast.csv", series)
    reference_series_csv(out / "reference.csv", series)
    assert (out / "fast.csv").read_bytes() == (out / "reference.csv").read_bytes()


def test_ascii_digits_pads_leading_zeros_with_nul():
    small = [0, 9, 10, 99, 100, 999, 1000, 2**32 - 1]
    large = small + [10**k - 1 for k in range(4, 19)] + [10**k for k in range(4, 19)]
    large += [2**32, 2**63 - 1]
    # values below 2^32 take the uint32 digit loop, the others int64
    for values in ([0], small, large):
        rows = cli._ascii_digits(np.array(values, dtype=np.int64))
        assert rows.dtype == np.uint8 and rows.shape[1] == len(str(max(values)))
        assert [bytes(row) for row in rows] == [
            str(v).encode().rjust(rows.shape[1], b"\0") for v in values
        ]
