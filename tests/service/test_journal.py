"""Tests for the write-ahead journal and its two-level file lock."""

import json
import os
import threading

import pytest

from repro.service.journal import FileLock, Journal


class TestJournal:
    def test_replay_empty_before_first_append(self, tmp_path):
        assert Journal(str(tmp_path / "j.jsonl")).replay() == []

    def test_append_replay_roundtrip_in_order(self, tmp_path):
        journal = Journal(str(tmp_path / "j.jsonl"))
        entries = [{"op": "a", "n": i} for i in range(5)]
        for entry in entries:
            journal.append(entry)
        assert journal.replay() == entries

    def test_replay_from_offset_returns_only_later_entries(self, tmp_path):
        journal = Journal(str(tmp_path / "j.jsonl"))
        spans = [journal.append({"op": "a", "n": i}) for i in range(3)]
        assert [span[0] for span in spans[1:]] == [span[1] for span in spans[:-1]]
        assert journal.replay() == [{"op": "a", "n": i} for i in range(3)]
        assert journal.offset == spans[-1][1] == os.path.getsize(journal.path)
        assert journal.replay(spans[1][0]) == [{"op": "a", "n": 1}, {"op": "a", "n": 2}]
        assert journal.replay(journal.offset) == []
        assert journal.offset == spans[-1][1]

    def test_torn_tail_is_left_unconsumed(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        _, end = journal.append({"op": "a"})
        with open(path, "a") as fh:
            fh.write('{"op": "torn"')
        with pytest.warns(RuntimeWarning, match="torn entry"):
            assert journal.replay() == [{"op": "a"}]
        assert journal.offset == end  # the next replay starts at the fragment
        start, _ = journal.append({"op": "b"})
        assert start == end + len('{"op": "torn"') + 1  # sealed, then appended
        with pytest.warns(RuntimeWarning, match="corrupt entr"):
            assert journal.replay(end) == [{"op": "b"}]

    def test_append_creates_parent_directory(self, tmp_path):
        journal = Journal(str(tmp_path / "deep" / "er" / "j.jsonl"))
        journal.append({"op": "a"})
        assert journal.replay() == [{"op": "a"}]

    def test_torn_tail_is_dropped_with_warning(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append({"op": "a"})
        journal.append({"op": "b"})
        with open(path, "a") as fh:
            fh.write('{"op": "torn", "x": 1')  # no newline: never committed
        with pytest.warns(RuntimeWarning, match="torn entry"):
            assert journal.replay() == [{"op": "a"}, {"op": "b"}]

    def test_torn_tail_even_when_valid_json(self, tmp_path):
        # A complete JSON object without the trailing newline still never
        # committed — the newline is the commit marker, not parseability.
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append({"op": "a"})
        with open(path, "a") as fh:
            fh.write(json.dumps({"op": "almost"}))
        with pytest.warns(RuntimeWarning, match="torn entry"):
            assert journal.replay() == [{"op": "a"}]

    def test_corrupt_mid_file_line_is_skipped_with_warning(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append({"op": "a"})
        with open(path, "a") as fh:
            fh.write("@@not json@@\n")
        journal.append({"op": "b"})
        with pytest.warns(RuntimeWarning, match="corrupt entr"):
            assert journal.replay() == [{"op": "a"}, {"op": "b"}]

    def test_non_dict_entry_counts_as_corrupt(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        with open(path, "a") as fh:
            fh.write("[1, 2, 3]\n")
        journal.append({"op": "a"})
        with pytest.warns(RuntimeWarning, match="corrupt entr"):
            assert journal.replay() == [{"op": "a"}]

    def test_appends_after_torn_tail_commit_past_it(self, tmp_path):
        # The queue's recovery story: append() seals a torn tail as its
        # own (corrupt, skipped) line, so transitions committed after the
        # crash never merge into the fragment and get lost with it.
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append({"op": "a"})
        with open(path, "a") as fh:
            fh.write('{"op": "torn"')
        journal.append({"op": "b"})
        with pytest.warns(RuntimeWarning, match="corrupt entr"):
            assert journal.replay() == [{"op": "a"}, {"op": "b"}]


class TestFileLock:
    def test_reentrant_within_a_thread(self, tmp_path):
        lock = FileLock(str(tmp_path / "l.lock"))
        with lock:
            with lock:
                pass
        # Fully released: a fresh acquire still works.
        with lock:
            pass

    def test_serializes_threads_sharing_one_instance(self, tmp_path):
        # The daemon regression: job threads and the heartbeat loop share
        # one JobQueue (one FileLock instance). Without the in-process
        # RLock, racing threads corrupt the flock fd bookkeeping and
        # deadlock on a leaked locked descriptor.
        lock = FileLock(str(tmp_path / "l.lock"))
        state = {"inside": 0, "max_inside": 0, "count": 0}

        def worker():
            for _ in range(50):
                with lock:
                    state["inside"] += 1
                    state["max_inside"] = max(state["max_inside"], state["inside"])
                    state["count"] += 1
                    state["inside"] -= 1

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(not t.is_alive() for t in threads)
        assert state["max_inside"] == 1
        assert state["count"] == 200

    def test_creates_lock_file_parent(self, tmp_path):
        path = str(tmp_path / "sub" / "dir" / "l.lock")
        with FileLock(path):
            assert os.path.exists(path)
