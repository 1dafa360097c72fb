import math

from cbe import codec, selftest


def test_all_groups_pass():
    results = selftest.run_all()
    assert [r.name for r in results] == [
        "binary-worked-example",
        "binary-length4-ranks",
        "ternary-rank-table",
        "entropy-bound-sweep",
    ]
    assert all(r.passed for r in results)
    assert all(r.detail == "" for r in results)


def test_run_all_is_deterministic():
    first = [(r.name, r.passed, r.detail) for r in selftest.run_all()]
    second = [(r.name, r.passed, r.detail) for r in selftest.run_all()]
    assert first == second


def test_group_result_record():
    result = selftest.GroupResult("entropy-bound-sweep", False, "trial 3")
    assert result == selftest.GroupResult(
        name="entropy-bound-sweep", passed=False, detail="trial 3")
    assert selftest.GroupResult("x", True).detail == ""
    assert repr(selftest.GroupResult("x", True)) == (
        "GroupResult(name='x', passed=True, detail='')")
    assert result != selftest.GroupResult("entropy-bound-sweep", True, "trial 3")
    assert result != ("entropy-bound-sweep", False, "trial 3")


def test_reference_table_shape():
    assert len(selftest.BANANA_RANKING) == 60
    assert len(set(selftest.BANANA_RANKING)) == 60
    assert all(sorted(row) == sorted("banana") for row in selftest.BANANA_RANKING)
    assert selftest.BANANA_RANKING[22] == "banana"


def _swapped_operation_order(bits):
    # the rejected variant: add C(i, ones) before counting the new one
    rank = 0
    ones = 0
    zeros = 0
    for i, bit in enumerate(bits):
        if bit == 1:
            if i > ones:
                rank += math.comb(i, ones)
            ones += 1
        else:
            zeros += 1
    return rank, zeros, ones


def test_detects_swapped_operation_order(monkeypatch):
    """A codec with the count/add order swapped must fail the worked
    example and report the wrong rank it produced (403)."""
    monkeypatch.setattr(codec, "encode_binary", _swapped_operation_order)
    results = {r.name: r for r in selftest.run_all()}
    worked = results["binary-worked-example"]
    assert not worked.passed
    assert "403" in worked.detail
    assert "251" in worked.detail
