import csv
import json

import numpy as np
import pytest

from domerge.checkpoint import extract_adapters
from domerge.diagnostics import (
    DiagnosticsReport,
    atomic_write_text,
    build_report,
    dumps_deterministic,
    emit_report,
    format_float,
)

from oracles import decoded_group, dense_report
from test_merge import adapter_set, degenerate_group


def test_dumps_sorted_keys_and_roundtrip():
    payload = {"zeta": [1, 2.5], "alpha": {"y": None, "x": True}, "mid": "s"}
    text = dumps_deterministic(payload)
    assert text.index('"alpha"') < text.index('"mid"') < text.index('"zeta"')
    assert json.loads(text) == payload


def test_dumps_float_precision_survives_parse():
    x = 0.1 + 0.2  # not exactly 0.3
    assert json.loads(dumps_deterministic({"x": x}))["x"] == x


def test_dumps_handles_numpy_scalars_and_arrays():
    text = dumps_deterministic({"a": np.float64(1.5), "b": np.int64(3), "c": np.arange(3)})
    assert json.loads(text) == {"a": 1.5, "b": 3, "c": [0, 1, 2]}


def test_dumps_escapes_control_characters():
    text = dumps_deterministic({"k": 'a"b\n\t\x01'})
    assert json.loads(text) == {"k": 'a"b\n\t\x01'}


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_deterministic({"x": float("nan")})
    with pytest.raises(ValueError):
        dumps_deterministic([float("inf")])


def test_dumps_rejects_unserializable():
    with pytest.raises(TypeError):
        dumps_deterministic({"x": object()})


def test_format_float_17_digits():
    assert float(format_float(1 / 3)) == 1 / 3


def test_magnitude_variance_zero_for_identical_adapters(adapter_files):
    adapters = extract_adapters([adapter_files[0], adapter_files[0]])
    assert build_report(adapters).magnitude_variance == pytest.approx(0.0, abs=1e-24)


def test_magnitude_variance_hand_value(tmp_path, rng):
    # one layer, two adapters whose task matrices are c * I with c = 2 and 4:
    # magnitude-vector Euclidean norms are 2*sqrt(2) and 4*sqrt(2), so the
    # population variance is ((sqrt(8)-sqrt(18))^2)/2 = 1... computed directly
    from domerge.checkpoint import TensorRecord, save_checkpoint

    paths = []
    for c in (2.0, 4.0):
        b = c * np.eye(2)
        a = np.eye(2)
        recs = {
            "l.lora_B.weight": TensorRecord.from_array("l.lora_B.weight", b, "f64"),
            "l.lora_A.weight": TensorRecord.from_array("l.lora_A.weight", a, "f64"),
        }
        p = tmp_path / f"c{int(c)}.safetensors"
        save_checkpoint(recs, p)
        paths.append(p)
    adapters = extract_adapters(paths)
    norms = np.array([np.sqrt(8.0), np.sqrt(32.0)])
    assert build_report(adapters).magnitude_variance == pytest.approx(norms.var(), rel=1e-12)


def test_orthogonality_report_symmetric_unsquared(adapter_files):
    adapters = extract_adapters(adapter_files)
    report = build_report(adapters).per_layer_cross_gram
    assert set(report) == set(adapters.layer_keys)
    for key, gram in report.items():
        assert gram.shape == (3, 3)
        assert np.allclose(gram, gram.T)
        group = decoded_group(adapters, key)
        w0 = group[0].scaling * (group[0].B @ group[0].A)
        w1 = group[1].scaling * (group[1].B @ group[1].A)
        # entries are unsquared product norms
        assert gram[0, 1] == pytest.approx(np.linalg.norm(w0.T @ w1), rel=1e-12)
        assert gram[0, 0] == pytest.approx(np.linalg.norm(w0.T @ w0), rel=1e-12)


def test_build_report_matches_dense_oracle():
    # mixed ranks, scalings 0.5 + i, a zero column and sub-floor units, in a
    # tall layer and a wide one (rows <= R)
    rng = np.random.default_rng(3)
    groups = {"tall": degenerate_group(rng, 20, 14, (2, 4, 3)), "wide": degenerate_group(rng, 8, 6, (2, 4, 3))}
    adapters = adapter_set([{key: g[i] for key, g in groups.items()} for i in range(3)], ["a", "b", "c"])
    report = build_report(adapters)
    variance, grams, stats = dense_report(adapters)
    assert report.magnitude_variance == pytest.approx(variance, rel=1e-12)
    assert sorted(report.per_layer_cross_gram) == sorted(grams) == ["tall", "wide"]
    for key in grams:
        np.testing.assert_allclose(report.per_layer_cross_gram[key], grams[key], rtol=1e-12, atol=0)
        np.testing.assert_allclose(report.per_layer_magnitude_stats[key], stats[key], rtol=1e-12, atol=0)


def test_build_report_fields(adapter_files):
    adapters = extract_adapters(adapter_files)
    report = build_report(adapters)
    assert report.adapter_names == ["adapter0", "adapter1", "adapter2"]
    for key, norms in report.per_layer_magnitude_stats.items():
        assert len(norms) == 3
        assert all(v > 0 for v in norms)


def test_build_report_decodes_each_layer_once(adapter_files, factor_reads):
    # each layer's A is decoded once, and its B (16 rows) read in one Gram pass of one piece
    adapters = extract_adapters(adapter_files)
    build_report(adapters)
    assert factor_reads == [
        read for key in adapters.layer_keys for read in (("factors", key), ("piece", key + ".lora_B.weight", 0))
    ]


def test_emit_report_json_parses_and_is_stable(adapter_files, tmp_path):
    adapters = extract_adapters(adapter_files)
    report = build_report(adapters)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    emit_report(report, p1, "json")
    emit_report(report, p2, "json")
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert set(payload) >= {"magnitude_variance", "per_layer_cross_gram", "per_layer_magnitude_stats"}


def test_emit_report_csv_schema(adapter_files, tmp_path):
    adapters = extract_adapters(adapter_files)
    report = build_report(adapters)
    path = tmp_path / "r.csv"
    emit_report(report, path, "csv")
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["section", "layer", "i", "j", "value"]
    sections = {r[0] for r in rows[1:]}
    assert {"magnitude_variance", "cross_gram", "magnitude_norm"} <= sections
    # upper-triangle entries only, i <= j
    for r in rows[1:]:
        if r[0] == "cross_gram":
            assert int(r[2]) <= int(r[3])


def test_emit_report_unknown_format(adapter_files, tmp_path):
    adapters = extract_adapters(adapter_files)
    report = build_report(adapters)
    with pytest.raises(ValueError):
        emit_report(report, tmp_path / "r.xml", "xml")


def test_atomic_write_failure_leaves_no_partial(tmp_path):
    target = tmp_path / "isdir"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(target, "body")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["isdir"]


def test_report_dataclass_holds_given_values():
    gram = np.array([[1.0, 0.5], [0.5, 2.0]])
    report = DiagnosticsReport(
        magnitude_variance=0.25,
        per_layer_cross_gram={"l": gram},
        per_layer_magnitude_stats={"l": [1.0, 2.0]},
    )
    assert report.per_layer_cross_gram["l"][0, 1] == 0.5
