"""``repro profile`` end to end.

The CLI is the observability story's front door: serial profiles must
emit run-rooted folded stacks and a loadable pstats dump, and sharded
profiles must label every per-shard series.
"""

import pstats

from repro.cli import main


def test_profile_serial_emits_flame_pstats_and_coverage(tmp_path, capsys):
    flame = tmp_path / "flame.txt"
    pstats_path = tmp_path / "spans.pstats"
    code = main([
        "profile", "fig9-3way", "--arrivals", "600",
        "--flame", str(flame), "--pstats", str(pstats_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "span coverage" in out
    assert "update:R" in out
    lines = flame.read_text().splitlines()
    assert lines
    assert all(line.startswith("run") for line in lines)
    names = {key[2] for key in pstats.Stats(str(pstats_path)).stats}
    assert "run" in names


def test_profile_sharded_labels_every_shard(tmp_path, capsys):
    prom = tmp_path / "metrics.prom"
    flame = tmp_path / "flame.txt"
    code = main([
        "profile", "fig9-6way", "--arrivals", "2000", "--shards", "4",
        "--prometheus", str(prom), "--flame", str(flame),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "4 shards" in out
    dump = prom.read_text()
    for shard in range(4):
        assert f'repro_cache_probes_total{{shard="{shard}"}}' in dump
    folded = flame.read_text()
    for shard in range(4):
        assert f"shard {shard};run" in folded


def test_profile_unknown_experiment_fails_cleanly(capsys):
    assert main(["profile", "nope"]) == 1
    assert "unknown profile experiment" in capsys.readouterr().err


def test_profile_rejects_bad_batch_size(capsys):
    assert main(["profile", "demo", "--batch-size", "0"]) == 1
    assert "--batch-size" in capsys.readouterr().err
