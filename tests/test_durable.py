"""Tests for the crash-safe write primitives in ``repro.util.durable``.

Covers each primitive's contract (atomic replace, first-writer-wins
publish, torn-tail recovery of the JSONL log), concurrent writers of one
path, and the fsync budget of every caller ported onto the module: no
caller may issue fewer fsyncs than the durability protocol needs.
"""

import json
import os
import sys
import threading
from pathlib import Path

import pytest

from repro.dse import CampaignConfig, otsu_directives_space, run_campaign
from repro.flow.journal import RunJournal
from repro.service import JobSpec, LeaseManager
from repro.service.chaos import SERVICE_DSL, SERVICE_SOURCES
from repro.service.jobs import JobRecord
from repro.service.store import JobStore
from repro.util import durable
from repro.util.durable import JsonlLog, atomic_write, fsync_dir, publish_excl
from repro.util.errors import ForeignLog, ReproError


def leftovers(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(".tmp-"))


class TestAtomicWrite:
    @pytest.mark.parametrize("durable_flag", [True, False])
    def test_replaces_and_leaves_no_temp(self, tmp_path, durable_flag):
        path = tmp_path / "sub" / "f.json"
        atomic_write(path, "one", durable=durable_flag)
        atomic_write(path, b"two", durable=durable_flag)
        assert path.read_bytes() == b"two"
        assert leftovers(path.parent) == []

    def test_failed_write_leaves_old_payload(self, tmp_path):
        path = tmp_path / "f"
        atomic_write(path, "old", durable=True)
        with pytest.raises(TypeError):
            atomic_write(path, 12345, durable=True)  # not str or bytes
        assert path.read_text() == "old"
        assert leftovers(tmp_path) == []

    def test_failed_rename_removes_temp(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        (target / "occupant").write_text("x")
        with pytest.raises(OSError):
            atomic_write(target, "data", durable=False)  # cannot replace a dir
        assert leftovers(tmp_path) == []

    def test_concurrent_writers_of_one_path(self, tmp_path):
        """Two writers racing on one path: no call raises, every read is
        one writer's complete payload."""
        path = tmp_path / "index.json"
        payloads = {
            w: json.dumps({"writer": w, "pad": w * 8192}, sort_keys=True)
            for w in ("a", "b")
        }
        errors: list[BaseException] = []
        reads: list[str] = []

        def writer(w: str) -> None:
            try:
                for _ in range(300):
                    atomic_write(path, payloads[w], durable=False)
                    reads.append(path.read_text())
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in "ab"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the writers finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(reads) == 600
        assert set(reads) <= set(payloads.values())
        assert leftovers(tmp_path) == []


class TestPublishExcl:
    def test_first_writer_wins(self, tmp_path):
        path = tmp_path / "d" / "job.json"
        assert publish_excl(path, "first")
        assert not publish_excl(path, "second")
        assert path.read_text() == "first"
        assert leftovers(path.parent) == []

    def test_racing_publishers_exactly_one_wins(self, tmp_path):
        path = tmp_path / "result.json"
        wins: list[str] = []
        barrier = threading.Barrier(4)

        def publisher(name: str) -> None:
            barrier.wait()
            if publish_excl(path, name):
                wins.append(name)

        threads = [
            threading.Thread(target=publisher, args=(f"p{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(wins) == 1
        assert path.read_text() == wins[0]


class TestJsonlLog:
    HEADER = {"kind": "header", "id": "x"}

    def test_start_append_read(self, tmp_path):
        log = JsonlLog(tmp_path / "new" / "log.jsonl")
        assert log.read() is None
        log.start(self.HEADER)
        log.append({"n": 1})
        log.close()
        log.close()  # idempotent
        assert JsonlLog(log.path).read() == [self.HEADER, {"n": 1}]
        # One sorted-key JSON object per line.
        assert log.path.read_text().splitlines()[1] == '{"n": 1}'

    def test_append_requires_open_log(self, tmp_path):
        with pytest.raises(AssertionError):
            JsonlLog(tmp_path / "log").append({"n": 1})

    @pytest.mark.parametrize("tail", ['{"n": 2', '{"n": 2}', "garbage\n"])
    def test_torn_tail_dropped_and_truncated(self, tmp_path, tail):
        log = JsonlLog(tmp_path / "log")
        log.start(self.HEADER)
        log.append({"n": 1})
        log.close()
        intact = log.path.read_bytes()
        with open(log.path, "a") as fh:
            fh.write(tail)
        again = JsonlLog(log.path)
        assert again.read() == [self.HEADER, {"n": 1}]
        again.reopen()
        assert again.path.read_bytes() == intact
        again.append({"n": 3})
        again.close()
        assert JsonlLog(log.path).read() == [self.HEADER, {"n": 1}, {"n": 3}]

    def test_corruption_before_tail_is_foreign(self, tmp_path):
        path = tmp_path / "log"
        path.write_text('{"kind": "header"}\nnot json\n{"n": 1}\n')
        with pytest.raises(ForeignLog, match="line 2"):
            JsonlLog(path).read()
        assert issubclass(ForeignLog, ReproError)

    def test_start_replaces_existing_file(self, tmp_path):
        log = JsonlLog(tmp_path / "log")
        log.start(self.HEADER)
        log.append({"n": 1})
        log.start({"kind": "other"})
        log.close()
        assert JsonlLog(log.path).read() == [{"kind": "other"}]


def test_fsync_dir_accepts_str_and_path(tmp_path):
    fsync_dir(tmp_path)
    fsync_dir(str(tmp_path))


@pytest.fixture()
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls (the real fsync still runs)."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestFsyncBudget:
    """Each ported caller keeps every fsync the protocol needs: file
    bytes before the rename/link/return, the directory after it."""

    def test_run_journal_begin_and_appends(self, tmp_path, fsyncs):
        j = RunJournal(tmp_path / "journal")
        j.begin("d" * 64)
        assert len(fsyncs) == 2  # header record + directory
        for i in range(3):
            j.step_start(f"s{i}", "d")
        j.step_commit("s0", "d")
        assert len(fsyncs) == 2 + 4
        j.close()
        del fsyncs[:]
        with RunJournal(tmp_path / "journal") as resumed:
            resumed.begin("d" * 64)  # resume: no write
        assert len(fsyncs) == 0

    def test_job_store_spec_and_terminals(self, tmp_path, fsyncs):
        store = JobStore(tmp_path)
        spec = JobSpec(dsl=SERVICE_DSL, sources=dict(SERVICE_SOURCES))
        assert store.save_spec("t", "j-1", spec)
        assert len(fsyncs) == 2  # payload + directory
        assert not store.save_spec("t", "j-1", spec)
        assert len(fsyncs) == 2
        del fsyncs[:]
        done = JobRecord(job_id="j-1", tenant="t", state="done")
        store.write_terminal(done, content_digest="c" * 64)
        assert len(fsyncs) == 4  # result.json + index entry, each 2
        del fsyncs[:]
        failed = JobRecord(job_id="j-2", tenant="t", state="failed")
        store.write_terminal(failed, content_digest="c" * 64)
        assert len(fsyncs) == 2

    def test_lease_create(self, tmp_path, fsyncs):
        manager = LeaseManager(tmp_path, "r1")
        assert manager.acquire("j-1") is not None
        assert len(fsyncs) == 2  # lease payload + directory; heartbeat: none
        del fsyncs[:]
        assert manager.acquire("j-1") is None
        assert len(fsyncs) == 1  # the losing temp payload only

    def test_dse_journal_per_point(self, tmp_path, fsyncs):
        result = run_campaign(
            CampaignConfig(
                space=otsu_directives_space(),
                fn_cache_dir=None,
                journal_path=str(tmp_path / "campaign.jsonl"),
                stop_after=3,
            )
        )
        assert result.evaluated == 3
        assert len(fsyncs) == 2 + 3  # header + directory, then one per point


def test_module_exports():
    assert set(durable.__all__) == {
        "JsonlLog",
        "atomic_write",
        "fsync_dir",
        "publish_excl",
    }
