"""Report container: keying, merging, and stable serialization."""

import json
import math

import numpy as np
import pytest

from forwardperf.report import CheckRecord, VerificationReport


def rec(tag, verdict=True, **kw):
    return CheckRecord(check_tag=tag, verdict=verdict, **kw)


def test_add_and_lookup():
    r = VerificationReport([rec("a", value=1.0, target=1.0, tolerance=0.1)])
    assert "a" in r
    assert r["a"].value == 1.0
    assert len(r) == 1
    assert r.all_passed


def test_duplicate_tag_rejected():
    r = VerificationReport([rec("a")])
    with pytest.raises(ValueError, match="duplicate"):
        r.add(rec("a"))


def test_merge_mutates_and_returns_self():
    r1 = VerificationReport([rec("a")])
    r2 = VerificationReport([rec("b", verdict=False)])
    out = r1.merge(r2)
    assert out is r1
    assert "b" in r1
    assert not r1.all_passed
    assert [x.check_tag for x in r1.failures()] == ["b"]


def test_records_sorted_by_tag():
    r = VerificationReport([rec("z"), rec("a"), rec("m")])
    assert [x.check_tag for x in r.records()] == ["a", "m", "z"]


def test_json_independent_of_insertion_order():
    a = VerificationReport([rec("x", value=0.5), rec("y", target=2.0)])
    b = VerificationReport([rec("y", target=2.0), rec("x", value=0.5)])
    assert a.to_json() == b.to_json()


def test_verdict_serialized_as_words():
    d = VerificationReport([rec("ok"), rec("bad", verdict=False)]).to_dict()
    assert d["checks"]["ok"]["verdict"] == "pass"
    assert d["checks"]["bad"]["verdict"] == "fail"
    assert d["all_passed"] is False


def test_numpy_scalars_become_plain_json():
    r = VerificationReport(
        [rec("n", value=np.float64(1.5), details={"z": np.float64(2.0), "arr": np.arange(3)})]
    )
    parsed = json.loads(r.to_json())
    assert parsed["checks"]["n"]["details"]["z"] == 2.0
    assert parsed["checks"]["n"]["details"]["arr"] == [0, 1, 2]


def test_nan_refused_in_json():
    r = VerificationReport([rec("bad", value=math.nan)])
    with pytest.raises(ValueError):
        r.to_json()


def test_text_rendering():
    r = VerificationReport(
        [
            rec("good", value=1.0, target=1.0, tolerance=1e-8),
            rec("bad", verdict=False, std_error=0.5, notes=("why it failed",)),
        ]
    )
    text = r.to_text()
    assert "[PASS] good" in text
    assert "[FAIL] bad" in text
    assert "note: why it failed" in text
    assert text.strip().endswith("overall: FAIL")


def dumps(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def test_json_writer_matches_json_dumps_on_edge_cases():
    # the report writer emits json.dumps's indent-2, sorted-key bytes
    tags = ["tab\there", 'quote " and \\\\ backslash', "line\nbreak", "\x00\x1f\x7f", "é ∑ 🙂", ""]
    floats = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e-7, 0.1, 1.0 / 3.0]
    records = [
        rec(
            tag,
            verdict=i % 2 == 0,
            value=floats[i],
            target=np.float64(floats[-1 - i]),
            tolerance=1e-6,
            worst_node=tag,
            notes=(tag, "plain"),
            details={tag: {"nested": [[], {}, [1, [2.5, None, True, False]], 10**30, -3]}},
        )
        for i, tag in enumerate(tags)
    ]
    records.append(rec("empty", details={"list": [], "map": {}, "tuple": ()}))
    records.append(rec("subclass", value=np.float64(-0.0), std_error=np.float64(5e-324)))
    report = VerificationReport(records)
    assert report.to_json() == dumps(report)
    assert VerificationReport().to_json() == dumps(VerificationReport()) == '{\n  "all_passed": true,\n  "checks": {}\n}'


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_json_writer_refuses_non_finite_numbers_as_json_dumps_does(bad):
    report = VerificationReport([rec("bad", value=1.0, details={"x": [bad]})])
    with pytest.raises(ValueError) as got:
        report.to_json()
    with pytest.raises(ValueError) as want:
        dumps(report)
    assert str(got.value) == str(want.value)


def test_json_writer_refuses_what_json_dumps_refuses():
    report = VerificationReport([rec("int64", value=np.int64(3))])
    with pytest.raises(TypeError) as got:
        report.to_json()
    with pytest.raises(TypeError) as want:
        dumps(report)
    assert str(got.value) == str(want.value)
