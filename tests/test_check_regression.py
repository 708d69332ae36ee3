"""The benchmark record gate (``benchmarks/check_regression.py``).

The committed ``BENCH_*.json`` records pass.  Every way one record can
go wrong — a changed digest, a missing gated case, a value past its
bound, a missing or truncated file — fails with exactly one message
that names that record, and the other records are still checked.
"""

from __future__ import annotations

import json
import shutil

import pytest

from benchmarks import check_regression as gate

RECORDS = list(gate.RECORDS.values())
GATES = [(record, g) for record in RECORDS for g in record.gates]


def _gate_id(param):
    record, g = param
    return f"{record.name}-{g.metric}"


@pytest.fixture
def records_dir(tmp_path):
    """A copy of the committed records to break one at a time."""
    for record in RECORDS:
        shutil.copy(gate.REPO_ROOT / record.filename, tmp_path)
    return tmp_path


def _rewrite(records_dir, record, mutate):
    path = records_dir / record.filename
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))


def _only_failure(records_dir, record):
    errors = gate.check(records_dir, verbose=False)
    assert len(errors) == 1, errors
    assert errors[0].startswith(f"{record.filename}: "), errors
    return errors[0]


def test_committed_records_pass():
    assert gate.check(verbose=False) == []


def test_every_record_has_a_digest_and_a_gate():
    for record in RECORDS:
        assert record.sources and record.gates, record.name
        assert gate.source_files(record.sources), record.name


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.name)
class TestRecordFailures:
    def test_changed_digest_names_own_sources_and_refresh(
        self, records_dir, record
    ):
        _rewrite(
            records_dir, record, lambda p: p.update(sources_digest="0" * 64)
        )
        message = _only_failure(records_dir, record)
        assert "stale" in message
        assert f"benchmarks/bench_{record.name}.py -q --benchmark-disable" in (
            message
        )
        for pattern in record.sources:
            assert pattern in message

    def test_missing_file(self, records_dir, record):
        (records_dir / record.filename).unlink()
        message = _only_failure(records_dir, record)
        assert record.refresh in message

    def test_truncated_file(self, records_dir, record):
        (records_dir / record.filename).write_text('{"cases": [')
        message = _only_failure(records_dir, record)
        assert record.refresh in message


@pytest.mark.parametrize("record, g", GATES, ids=[_gate_id(p) for p in GATES])
class TestGateFailures:
    def test_missing_gated_case(self, records_dir, record, g):
        def drop(payload):
            picked = gate.selected(g, payload["cases"])
            assert picked, "the committed record must measure this gate"
            payload["cases"] = [c for c in payload["cases"] if c not in picked]

        _rewrite(records_dir, record, drop)
        message = _only_failure(records_dir, record)
        assert g.reason in message

    def test_value_past_bound(self, records_dir, record, g):
        def breach(payload):
            picked = gate.selected(g, payload["cases"])
            if g.metric.startswith("distinct:"):
                field = g.metric.split(":", 1)[1]
                for case in picked:
                    case[field] = picked[0][field]
            else:
                step = -1 if g.compare == ">=" else 1
                picked[0][g.metric] = g.bound + step * (1 + abs(g.bound))

        _rewrite(records_dir, record, breach)
        message = _only_failure(records_dir, record)
        assert g.reason in message


def test_all_failing_records_reported_in_one_run(records_dir):
    (records_dir / RECORDS[0].filename).unlink()
    (records_dir / RECORDS[-1].filename).write_text('{"cases": [')
    errors = gate.check(records_dir, verbose=False)
    assert [e.split(":")[0] for e in errors] == [
        RECORDS[0].filename,
        RECORDS[-1].filename,
    ]
