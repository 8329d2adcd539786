"""Config parsing, grid execution, report emission, and the CLI surface."""

import csv
import json
import math
import re

import pytest

from decoupkit import cli
from decoupkit.config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    serialize_config,
    validate,
)


def _cfg(**over):
    base = dict(kind="entropy", seed=11)
    base.update(over)
    return ExperimentConfig(**base)


def test_config_round_trip():
    cfg = _cfg(kind="sweep", alphas=(1.25, 2.0), ns=(1, 2), dims=(2, 4),
               samples=50, dtype="both", delta1=0.05)
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_unset_dims_round_trips():
    cfg = _cfg(kind="protocol")
    assert cfg.dims == () and validate(cfg) == []
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_missing_seed_and_kind():
    with pytest.raises(ConfigError) as ei:
        parse_config("alphas = 1.5\n")
    msgs = ei.value.violations
    assert any("'kind'" in m for m in msgs)
    assert any("'seed'" in m for m in msgs)


def test_config_reports_line_numbers_and_collects_all():
    text = "kind = entropy\nbogus line\nalpha = 1.5\nseed = 3\nseed = 4\n"
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    msgs = "\n".join(ei.value.violations)
    assert "line 2" in msgs and "line 3" in msgs and "line 5" in msgs


def test_config_alpha_range_and_empty_grid():
    with pytest.raises(ConfigError) as ei:
        parse_config("kind = entropy\nseed = 1\nalphas = 2.5\nns =\n")
    msgs = "\n".join(ei.value.violations)
    assert "(0, 2]" in msgs
    assert "non-empty" in msgs


def test_validate_rejects_tiny_mc_sample_count():
    assert any("samples" in v for v in validate(_cfg(kind="sweep", samples=1)))
    assert validate(_cfg(kind="entropy", samples=1)) == []


def test_grid_row_count_contract():
    cfg = _cfg(kind="sweep", alphas=(1.25, 1.5), ns=(1, 2), dims=(2,),
               dtype="both", samples=4)
    assert len(cli._grid(cfg)) == 2 * 2 * 1 * 2
    rep = cli.run(cfg)
    assert len(rep.rows) == 8
    assert rep.columns == cli._COLUMNS["sweep"]


def test_run_is_fail_soft(tmp_path):
    # dim_b beyond |A|^n fails that grid point but not its neighbors
    cfg = _cfg(kind="decouple", alphas=(1.5,), ns=(1, 2), dims=(4,), samples=4)
    rep = cli.run(cfg)
    errs = [r["error"] for r in rep.rows]
    assert errs[0].startswith("ValueError") and errs[1] == ""


def test_emit_csv_and_json_agree(tmp_path):
    cfg = _cfg(kind="theta", dims=(2, 3), fixture="identity")
    rep = cli.run(cfg)
    prefix = str(tmp_path / "out")
    paths = cli.emit(rep, prefix)
    with open(paths[0], newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    with open(paths[1], encoding="utf-8") as f:
        doc = json.load(f)
    assert rows == doc["rows"]
    assert doc["tool_version"] == cli.TOOL_VERSION
    assert parse_config(doc["config"]) == cfg
    # identity channel on dim d has the maximal spread log2(d)
    assert float(rows[0]["theta"]) == pytest.approx(1.0)
    assert float(rows[1]["theta"]) == pytest.approx(math.log2(3))


def test_emit_floats_carry_17_significant_digits(tmp_path):
    cfg = _cfg(kind="entropy", alphas=(1.5,), fixture="random")
    rep = cli.run(cfg)
    prefix = str(tmp_path / "ent")
    cli.emit(rep, prefix, formats=("csv",))
    with open(prefix + ".csv", encoding="utf-8") as f:
        body = f.read()
    floats = re.findall(r"-?\d\.\d{13,}", body)
    assert floats, body


def test_emit_empty_rows_keeps_header(tmp_path):
    rep = cli.RunReport(config_echo="", rows=[], columns=cli._COLUMNS["theta"])
    path = cli.emit(rep, str(tmp_path / "empty"), formats=("csv",))[0]
    with open(path, encoding="utf-8") as f:
        assert f.read() == "dim,channel,theta,error\n"


def test_same_seed_same_bytes(tmp_path, monkeypatch):
    cfg_text = ("kind = sweep\nseed = 42\nalphas = 1.5\nns = 1,2\n"
                "dims = 2\nsamples = 8\n")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(cfg_text)
    blobs = []
    for workers in ("1", "3"):
        monkeypatch.setenv("DECOUPKIT_WORKERS", workers)
        out = tmp_path / f"run{workers}"
        rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                       "--format", "csv"])
        assert rc == 0
        blobs.append((out.with_suffix(".csv")).read_bytes())
    assert blobs[0] == blobs[1]


def test_seed_flag_overrides_config(tmp_path):
    cfg_text = "kind = theta\nseed = 1\ndims = 2\nfixture = identity\n"
    p = tmp_path / "cfg.txt"
    p.write_text(cfg_text)
    rc = cli.main(["theta", "--config", str(p), "--seed", "9",
                   "--out", str(tmp_path / "t"), "--format", "json"])
    assert rc == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert parse_config(doc["config"]).seed == 9


def test_cli_rejects_bad_config_with_exit_code_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("kind = entropy\n")
    assert cli.main(["entropy", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_unknown_format(tmp_path):
    assert cli.main(["theta", "--seed", "1", "--format", "yaml"]) == 2


def test_cli_kind_mismatch_rejected(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("kind = theta\nseed = 1\n")
    assert cli.main(["entropy", "--config", str(p)]) == 2


def test_protocol_schumacher_fixed_dim_sweep_shows_trend(tmp_path):
    cfg_text = ("kind = protocol\nseed = 42\nprotocol = schumacher\n"
                "alphas = 1.5\nns = 2,3,4\ndims = 4\n")
    p = tmp_path / "cfg.txt"
    p.write_text(cfg_text)
    rc = cli.main(["protocol", "--config", str(p), "--out",
                   str(tmp_path / "sch"), "--format", "csv"])
    assert rc == 0
    with open(tmp_path / "sch.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    errs = [float(r["measured_error"]) for r in rows]
    assert len(errs) == 3
    # fixed code size, growing source: the error trend is monotone
    assert errs[0] < errs[1] < errs[2]


def test_all_subcommands_exist():
    parser = cli._build_parser()
    for cmd in ("entropy", "theta", "twirl-check", "decouple", "protocol",
                "sweep"):
        args = parser.parse_args([cmd, "--seed", "1"])
        assert args.seed == 1


def test_cli_rejects_bad_worker_count_with_exit_code_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DECOUPKIT_WORKERS", "abc")
    rc = cli.main(["theta", "--seed", "1", "--out", str(tmp_path / "t")])
    assert rc == 2
    assert "DECOUPKIT_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_protocol_schumacher_explicit_dims_2_is_kept():
    cfg = parse_config("kind = protocol\nseed = 3\nprotocol = schumacher\n"
                       "fixture = skewed\nalphas = 1.5\nns = 3\ndims = 2\n")
    row = cli.run(cfg).rows[0]
    assert row["error"] == ""
    assert float(json.loads(row["rates"])["compression_rate"]) == pytest.approx(1 / 3)


def test_protocol_schumacher_unset_dims_uses_rate_default():
    cfg = parse_config("kind = protocol\nseed = 3\nprotocol = schumacher\n"
                       "fixture = skewed\nalphas = 1.5\nns = 2,3,4,5,6\n")
    rows = cli.run(cfg).rows
    assert [r["error"] for r in rows] == [""] * 5
    rates = [float(json.loads(r["rates"])["compression_rate"]) for r in rows]
    assert [round(2.0 ** (n * r)) for n, r in zip(range(2, 7), rates)] == [2, 4, 6, 11, 18]
