import csv
import io
import json
import re

import pytest

from smoothdyn.cli import main
from smoothdyn.graph import all_pairs, pair_count
from smoothdyn.harness import (
    CSV_HEADER,
    EXPERIMENTS,
    ExperimentConfig,
    MetricRow,
    bench_point,
    cmd_bench,
    cmd_simulate,
    cmd_verify,
    expensive_frac_prediction,
    simulate_trial,
    write_metrics,
)
from smoothdyn.oracles import ENUM_CAP


def test_config_from_file_and_validation(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "st4", "n": 15, "p": 0.3, "trials": 2}))
    cfg = ExperimentConfig(**ExperimentConfig.read_fields(str(path)))
    assert cfg.problem == "st4" and cfg.n == 15 and cfg.p == 0.3

    path.write_text(json.dumps({"banana": 1}))
    with pytest.raises(ValueError, match="unknown config field"):
        ExperimentConfig.read_fields(str(path))

    path.write_text("{broken")
    with pytest.raises(ValueError, match="invalid config JSON"):
        ExperimentConfig.read_fields(str(path))

    with pytest.raises(ValueError):
        ExperimentConfig(p=1.5).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(p_grid=[]).validate()


BAD_CONFIGS = [
    {"problem": "bogus"},
    {"problem": ["st3"]},
    {"model": "bogus"},
    {"mode": "bogus"},
    {"n": 1},
    {"n": 0},
    {"T": -1},
    {"T": 0},
    {"query_every": -1},
    {"n": "10"},
    {"n": 10.0},
    {"trials": True},
    {"seed": None},
    {"seed": -1},
    {"p": "0.5"},
    {"p_grid": [0.5, "1"]},
    {"p_grid": 0.5},
    {"out": 3},
]


@pytest.mark.parametrize("fields", BAD_CONFIGS, ids=lambda f: repr(f))
def test_config_rejects_bad_fields(fields, tmp_path, capsys):
    with pytest.raises(ValueError):
        ExperimentConfig(**fields).validate()
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(fields))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg)])
    assert exc.value.code == 2 and "error:" in capsys.readouterr().err


def test_config_rejects_non_object_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="object"):
        ExperimentConfig.read_fields(str(path))


def test_cli_flags_override_config_fields(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "st3", "n": 15, "T": 20, "trials": 1}))
    out = tmp_path / "rows.csv"
    for flags, n in [([], 15), (["-n", "12"], 12)]:
        assert main(["simulate", "--config", str(cfg), "--out", str(out)] + flags) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert rows and all(row["n"] == str(n) for row in rows)


def test_metric_csv_bytes():
    rows = [MetricRow(0, 0.5, 10, 100, "st3", "oblivious-flip", "error_rate", 0.0)]
    buf = io.StringIO()
    write_metrics(rows, buf)
    text = buf.getvalue()
    assert text == (
        ",".join(CSV_HEADER) + "\n" + "0,0.5,10,100,st3,oblivious-flip,error_rate,0.0\n"
    )
    assert "\r" not in text


@pytest.mark.parametrize("model", ["oblivious-flip", "oblivious-ar", "adaptive"])
def test_simulate_counters_track_oracle(model):
    cfg = ExperimentConfig(problem="st3", model=model, n=12, p=0.4, T=300, trials=2)
    rows = cmd_simulate(cfg)
    errors = [r for r in rows if r.metric == "error_rate"]
    assert len(errors) == 2 and all(r.value == 0.0 for r in errors)


def test_simulate_deciders():
    cfg = ExperimentConfig(
        problem="connectivity-trivial", n=40, p=0.5, T=400, trials=2, seed=3
    )
    rows = cmd_simulate(cfg)
    assert all(r.value == 0.0 for r in rows if r.metric == "error_rate")
    cfg = ExperimentConfig(
        problem="perfect-matching-trivial", n=40, p=0.5, T=400, trials=2, seed=3
    )
    rows = cmd_simulate(cfg)
    assert all(r.value == 0.0 for r in rows if r.metric == "error_rate")
    rows = cmd_simulate(cfg)
    assert all(r.value == 0.0 for r in rows if r.metric == "error_rate")
    with pytest.raises(ValueError, match="unknown simulate problem"):
        simulate_trial(ExperimentConfig(problem="nope"), 0)


def test_simulate_trial_determinism():
    cfg = ExperimentConfig(problem="s-triangle", n=10, p=0.3, T=200, trials=1, seed=7)
    a = [r.as_list() for r in simulate_trial(cfg, 0)]
    b = [r.as_list() for r in simulate_trial(cfg, 0)]
    assert a == b


def test_bench_prediction_and_ratio():
    n, T, seed = 300, 3000, 0
    for p in (0.1, 0.5, 1.0):
        frac, _ = bench_point(n, p, T, seed)
        predicted = expensive_frac_prediction(p, n)
        assert abs(frac - predicted) <= 0.2 * predicted
    _, ops_p1 = bench_point(n, 1.0, T, seed)
    _, ops_p0 = bench_point(n, 0.0, T, seed)
    assert ops_p1 / ops_p0 >= 20  # adversarial hammering is far costlier


def test_expensive_frac_prediction_counts_the_pairs_touching_s_or_t():
    for n in range(3, 41):
        touching = sum(1 for e in all_pairs(n) if 0 in e or 1 in e)
        assert expensive_frac_prediction(0.0, n) == pytest.approx(touching / pair_count(n))
        assert expensive_frac_prediction(1.0, n) == 1.0


def test_cmd_bench_rows():
    cfg = ExperimentConfig(n=50, T=200, trials=2, p_grid=[0.2, 1.0])
    rows = cmd_bench(cfg)
    assert len(rows) == 2 * 2 * 2  # trials x grid x metrics
    with pytest.raises(ValueError):
        cmd_bench(ExperimentConfig(n=50, T=200, p_grid=None))


def reduce_run(config: ExperimentConfig):
    return EXPERIMENTS[f"reduce --mode {config.mode}"].run(config)


def test_cmd_reduce_modes():
    rows, ok = reduce_run(ExperimentConfig(mode="sol", n=4, p=0.5, trials=3))
    assert ok and all(r.value == 0.0 for r in rows)
    rows, ok = reduce_run(ExperimentConfig(mode="p3general", n=4, p=0.5, T=100, trials=2))
    assert ok and all(r.value == 0.0 for r in rows)
    rows, ok = reduce_run(ExperimentConfig(mode="omv-chain", n=4, trials=20))
    assert ok and rows[0].value == 0.0
    with pytest.raises(ValueError, match="p > 0"):  # validated before the first trial
        reduce_run(ExperimentConfig(mode="sol", p=0.0))


def test_cmd_verify_all_pass():
    results = cmd_verify(seed=0)
    assert len(results) == 4
    for suite, passed, detail in results:
        assert passed, (suite, detail)


# -- CLI front-end -------------------------------------------------------


def test_cli_simulate_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    timings = tmp_path / "time.csv"
    code = main(
        [
            "simulate", "--problem", "st3", "-n", "10", "-p", "0.5", "-T", "100",
            "--trials", "1", "--seed", "1", "--out", str(out), "--timings", str(timings),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith(",".join(CSV_HEADER) + "\n")
    assert timings.read_text().startswith("metric,value\nwall_time_s,")
    # byte-reproducible rerun (timings live in the separate file)
    again = tmp_path / "rows2.csv"
    main(
        [
            "simulate", "--problem", "st3", "-n", "10", "-p", "0.5", "-T", "100",
            "--trials", "1", "--seed", "1", "--out", str(again),
        ]
    )
    assert again.read_text() == text


def test_cli_bench_stdout(capsys):
    code = main(["bench", "-n", "40", "-T", "100", "--trials", "1", "--p-grid", "0.5,1.0"])
    assert code == 0
    assert capsys.readouterr().out.startswith(",".join(CSV_HEADER))


def test_cli_reduce_and_verify(capsys, tmp_path):
    out = tmp_path / "sol.csv"
    code = main(
        ["reduce", "--mode", "sol", "-n", "4", "-p", "0.5", "--trials", "2",
         "--seed", "0", "--out", str(out)]
    )
    assert code == 0 and out.exists()
    code = main(["reduce", "--mode", "p3general", "-n", "3", "-p", "0.5", "-T", "40",
                 "--trials", "1", "--out", str(out)])
    assert code == 0
    code = main(["verify", "--seed", "0"])
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.count("[PASS]") == 4 and "[FAIL]" not in captured


def test_cli_bad_config_errors(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"p": 2.0}))
    with pytest.raises(SystemExit):
        main(["simulate", "--config", str(cfg)])


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--problem", "st4"],
        ["bench", "--model", "adaptive"],
        ["bench", "-p", "0.9"],
        ["bench", "--query-every", "5"],
        ["bench", "--threads", "4"],
        ["reduce", "--problem", "st4"],
        ["reduce", "--model", "adaptive"],
        ["reduce", "--query-every", "5"],
        ["reduce", "--threads", "4"],
        ["simulate", "--threads", "2"],
        ["simulate", "--problem", "bogus"],
        ["simulate", "--model", "bogus"],
        ["reduce", "--mode", "bogus"],
        ["bench", "-n", "20", "-T", "10"],  # no p-grid
        ["simulate", "-n", "1", "-T", "10"],
        ["bench", "-n", "1", "--p-grid", "0.5"],
        ["reduce", "-n", "1"],
        ["reduce", "--mode", "omv-chain", "-n", "1"],
        ["reduce", "--mode", "p3general", "-n", "1"],
        ["simulate", "--problem", "connectivity-hybrid"],
        ["reduce", "--mode", "sol", "-p", "0"],
        ["simulate", "--problem", "perfect-matching-trivial", "-n", "3"],
        # above the enumeration oracles' node cap
        ["simulate", "--problem", "st3", "-n", "70"],
        ["simulate", "--problem", "st4", "-n", "70"],
        ["simulate", "--problem", "s-triangle", "-n", "70"],
        ["simulate", "--problem", "s-4-cycle", "-n", "70"],
        ["reduce", "--mode", "sol", "-n", "32"],  # 2n + 2 = 66 nodes
        ["reduce", "--mode", "p3general", "-n", "32"],
        # a reduce mode rejects the flags it does not read
        ["reduce", "--mode", "omv-chain", "-p", "0.9", "-T", "77", "-n", "3", "--trials", "2"],
        ["reduce", "--mode", "omv-chain", "-p", "0.9"],
        ["reduce", "--mode", "omv-chain", "-T", "77"],
        ["reduce", "--mode", "sol", "-T", "5"],
        ["reduce", "-T", "5"],  # sol is the default mode
        ["simulate", "--seed", "-1"],
        ["verify", "--seed", "-1"],
        # abbreviated flags
        ["simulate", "--trial", "1"],
        ["bench", "--p-gr", "0.5"],
        ["simulate", "--mode", "sol"],
    ],
    ids=" ".join,
)
def test_cli_rejects_flags_the_command_does_not_honour(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "error:" in capsys.readouterr().err


# the command line that runs each experiment -> the config fields it reads,
# besides out and timings_out
EXPERIMENT_READS = {
    "simulate": {"problem", "model", "n", "p", "T", "trials", "seed", "query_every"},
    "bench": {"n", "p_grid", "T", "trials", "seed"},
    "reduce --mode sol": {"mode", "n", "p", "trials", "seed"},
    "reduce --mode p3general": {"mode", "n", "p", "T", "trials", "seed"},
    "reduce --mode omv-chain": {"mode", "n", "trials", "seed"},
}


def test_experiments_read_the_pinned_fields():
    assert {key: set(entry.reads) for key, entry in EXPERIMENTS.items()} == EXPERIMENT_READS


# a value of each field that passes validation for every experiment
VALID_VALUES = dict(
    problem="st4", model="adaptive", n=4, p=0.5, p_grid=[0.5], T=7, trials=1, seed=1,
    query_every=5, mode="sol",
)


@pytest.mark.parametrize(
    "argv, fields, message",
    [
        (
            ["bench", "--p-grid", "0.5"],
            {"p": 0.3, "mode": "sol", "problem": "st4"},
            "bench does not read the field(s) mode, p, problem",
        ),
        (["reduce", "--mode", "sol"], {"T": 7}, "reduce --mode sol does not read the field(s) T"),
        (
            ["reduce", "--mode", "omv-chain", "-T", "5"],
            {"n": 3, "p": 0.9},
            "reduce --mode omv-chain does not read the field(s) T, p",
        ),
        (["simulate"], {"p_grid": [0.5]}, "simulate does not read the field(s) p_grid"),
        (["simulate"], {"mode": "sol"}, "simulate does not read the field(s) mode"),
    ]
    # every experiment, one field it does not read at a time
    + [
        (
            experiment.split() + (["--p-grid", "0.5"] if experiment == "bench" else []),
            {field: VALID_VALUES[field]},
            f"{experiment} does not read the field(s) {field}",
        )
        for experiment, reads in EXPERIMENT_READS.items()
        for field in sorted(VALID_VALUES.keys() - reads)
    ],
)
def test_cli_rejects_config_fields_the_command_does_not_read(
    argv, fields, message, tmp_path, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(cfg)])
    assert exc.value.code == 2 and capsys.readouterr().err.rstrip().endswith(message)


@pytest.mark.parametrize(
    "command, options",
    [
        ("simulate", "--config --out --timings --seed -n -T --trials --problem --model -p "
                     "--query-every"),
        ("bench", "--config --out --timings --seed -n -T --trials --p-grid"),
        ("reduce", "--config --out --timings --seed -n -T --trials -p --mode"),
        ("verify", "--seed"),
    ],
)
def test_cli_option_sets(command, options, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    listed = re.findall(r"^  (-[\w-]+)", capsys.readouterr().out, re.MULTILINE)
    assert exc.value.code == 0 and set(listed) == {"-h", *options.split()}


@pytest.mark.parametrize("flag", ["--out", "--timings"])
def test_cli_rejects_an_output_path_it_cannot_open_before_the_run(flag, tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "-n", "10", "-T", "10", "--trials", "1", flag, str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and "error:" in captured.err
    assert captured.out == ""  # nothing ran, so no CSV went to stdout


def test_cli_runs_a_config_of_fields_the_command_reads(tmp_path):
    out = tmp_path / "rows.csv"
    for argv, fields in [
        (["simulate"], dict(problem="st3", model="adaptive", n=8, p=0.5, T=20, trials=1,
                            seed=1, query_every=5, out=str(out), timings_out=None)),
        (["bench"], dict(n=20, p_grid=[0.5], T=20, trials=1, seed=1, out=str(out))),
        (["reduce"], dict(mode="sol", n=3, p=0.5, trials=1, seed=1, out=str(out))),
        (["reduce"], dict(mode="p3general", n=3, p=0.5, T=20, trials=1, out=str(out))),
    ]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        assert main(argv + ["--config", str(cfg)]) == 0
        assert out.read_text().startswith(",".join(CSV_HEADER))
        out.unlink()


def test_sizes_within_the_oracle_cap_pass_validation():
    for command, fields in [
        ("simulate", dict(problem="st3", n=ENUM_CAP)),
        ("simulate", dict(problem="st2", n=ENUM_CAP + 6)),  # st2's oracle has no cap
        ("simulate", dict(problem="connectivity-trivial", n=200)),
        ("reduce", dict(mode="sol", n=(ENUM_CAP - 2) // 2)),  # 2n + 2 = ENUM_CAP nodes
        ("reduce", dict(mode="omv-chain", n=ENUM_CAP + 6)),
        ("bench", dict(n=2000, p_grid=[0.5])),
    ]:
        ExperimentConfig(**fields).validate_for(command)
