"""run_campaign: parallel execution, worker failure paths, resume
determinism.

The crash/hang/flake jobs come from :mod:`repro.campaigns.testing` —
package-level so forked/spawned workers can resolve them by dotted name.
"""

import json

import pytest

from repro.campaigns import (
    CampaignSpec,
    run_campaign,
    summarize,
    write_summary,
)
from repro.campaigns.store import ArtifactStore


def _spec(job="repro.campaigns.testing.ok_job", **overrides):
    base = dict(
        name="t",
        job=job,
        grid={"value": [0, 1, 2, 3]},
        seeds=1,
        entropy=5,
        retries=1,
        backoff=0.01,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestHappyPath:
    def test_inline_executes_all(self, tmp_path):
        res = run_campaign(_spec(), tmp_path / "s", workers=0)
        assert res.ok and res.executed == 4 and res.skipped == 0
        store = ArtifactStore(tmp_path / "s")
        assert len(store.completed_hashes()) == 4
        for rec in store.records().values():
            assert rec["attempts"] == 1
            assert rec["metrics"]["counters"]["test_draws"] == 4

    def test_pooled_matches_inline_bytes(self, tmp_path):
        spec = _spec()
        run_campaign(spec, tmp_path / "a", workers=0)
        run_campaign(spec, tmp_path / "b", workers=2)
        a = write_summary(ArtifactStore(tmp_path / "a")).read_bytes()
        b = write_summary(ArtifactStore(tmp_path / "b")).read_bytes()
        assert a == b

    def test_results_deterministic_per_job(self, tmp_path):
        spec = _spec()
        r1 = run_campaign(spec, tmp_path / "a", workers=0)
        r2 = run_campaign(spec, tmp_path / "b", workers=2)
        recs1, recs2 = r1.store.records(), r2.store.records()
        assert recs1.keys() == recs2.keys()
        for h in recs1:
            assert recs1[h]["result"] == recs2[h]["result"]
            assert recs1[h]["content_hash"] == recs2[h]["content_hash"]

    def test_resume_skips_completed(self, tmp_path):
        spec = _spec()
        run_campaign(spec, tmp_path / "s", workers=0)
        res = run_campaign(spec, tmp_path / "s", workers=0)
        assert res.skipped == 4 and res.executed == 0

    def test_no_resume_reexecutes(self, tmp_path):
        spec = _spec()
        run_campaign(spec, tmp_path / "s", workers=0)
        res = run_campaign(spec, tmp_path / "s", workers=0, resume=False)
        assert res.skipped == 0 and res.executed == 4

    def test_progress_events(self, tmp_path):
        events = []
        run_campaign(
            _spec(), tmp_path / "s", workers=0,
            progress=lambda ev, info: events.append(ev),
        )
        assert events[0] == "campaign_start" and events[-1] == "campaign_end"
        assert events.count("job_done") == 4


class TestResumeDeterminism:
    """The kill-and-resume acceptance criterion: a campaign interrupted
    mid-run and resumed re-executes only the missing jobs and the final
    aggregate is byte-identical, at any worker count."""

    @pytest.mark.parametrize("resume_workers", [0, 2, 3])
    def test_interrupted_then_resumed_summary_is_byte_identical(
        self, tmp_path, resume_workers
    ):
        spec = _spec(grid={"value": [0, 1, 2, 3, 4, 5]})
        # the uninterrupted baseline
        run_campaign(spec, tmp_path / "full", workers=0)
        baseline = write_summary(ArtifactStore(tmp_path / "full")).read_bytes()

        # simulate a mid-run kill: keep only the first 2 artifact lines
        run_campaign(spec, tmp_path / "cut", workers=0)
        store = ArtifactStore(tmp_path / "cut")
        lines = store.artifacts_path.read_text().splitlines()
        store.artifacts_path.write_text("\n".join(lines[:2]) + "\n")
        (store.root / "summary.json").unlink(missing_ok=True)

        res = run_campaign(spec, tmp_path / "cut", workers=resume_workers)
        assert res.skipped == 2 and res.executed == 4
        assert write_summary(store).read_bytes() == baseline

    def test_resume_after_torn_write(self, tmp_path):
        spec = _spec(grid={"value": [0, 1, 2]})
        run_campaign(spec, tmp_path / "full", workers=0)
        baseline = write_summary(ArtifactStore(tmp_path / "full")).read_bytes()

        run_campaign(spec, tmp_path / "cut", workers=0)
        store = ArtifactStore(tmp_path / "cut")
        text = store.artifacts_path.read_text().splitlines()
        # keep one whole record plus half of the next (killed mid-append)
        store.artifacts_path.write_text(text[0] + "\n" + text[1][: len(text[1]) // 2])
        res = run_campaign(spec, tmp_path / "cut", workers=0)
        assert res.skipped == 1 and res.executed == 2
        assert write_summary(store).read_bytes() == baseline


class TestFailurePaths:
    def test_flaky_job_retry_accounting(self, tmp_path):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        spec = _spec(
            job="repro.campaigns.testing.flaky_job",
            grid={"value": [0, 1]},
            fixed={"fail_first": 2, "scratch_dir": str(scratch)},
            retries=3,
        )
        res = run_campaign(spec, tmp_path / "s", workers=2)
        assert res.ok
        for rec in res.store.records().values():
            assert rec["status"] == "ok" and rec["attempts"] == 3
        # the runner's accounting matches what the workers actually saw
        for marker in scratch.glob("attempts-*"):
            assert marker.read_text() == "3"

    @pytest.mark.parametrize("workers", [0, 2])
    def test_retries_exhausted_records_failure(self, tmp_path, workers):
        spec = _spec(
            job="repro.campaigns.testing.erroring_job",
            fixed={"fail_values": [2]},
            retries=2,
        )
        res = run_campaign(spec, tmp_path / f"s{workers}", workers=workers)
        assert not res.ok and len(res.failed) == 1 and res.executed == 3
        [failed] = [
            r for r in res.store.records().values() if r["status"] == "failed"
        ]
        assert failed["attempts"] == 3  # retries + 1
        assert "injected failure" in failed["error"]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_retry_event_only_when_a_retry_follows(self, tmp_path, workers):
        """Both paths announce ``job_retry`` before each retry, never after
        the last attempt: retries=1 gives attempts [1], then job_failed."""
        spec = _spec(
            job="repro.campaigns.testing.erroring_job",
            grid={"value": [2]},
            fixed={"fail_values": [2]},
            retries=1,
        )
        events = []
        run_campaign(
            spec, tmp_path / f"s{workers}", workers=workers,
            progress=lambda ev, info: events.append((ev, info.get("attempt"))),
        )
        job_events = [e for e in events if e[0].startswith("job_")]
        assert job_events == [("job_retry", 1), ("job_failed", None)]

    def test_failed_jobs_rerun_on_resume(self, tmp_path):
        """completed_hashes() holds only ok jobs, so resume skips the
        successes and re-attempts the failure."""
        spec = _spec(
            job="repro.campaigns.testing.erroring_job",
            fixed={"fail_values": [2]},
            retries=0,
        )
        res = run_campaign(spec, tmp_path / "s", workers=0)
        assert not res.ok and res.executed == 3  # executed = successes
        res2 = run_campaign(spec, tmp_path / "s", workers=0)
        assert res2.skipped == 3 and len(res2.failed) == 1 and not res2.ok

    def test_crash_isolation(self, tmp_path):
        """A worker dying via os._exit fails its own job after retries —
        the other jobs complete and the campaign survives the broken
        pools."""
        spec = _spec(
            job="repro.campaigns.testing.crashing_job",
            grid={"value": [0, 1, 2, 3]},
            fixed={"crash_values": [2]},
            retries=1,
        )
        res = run_campaign(spec, tmp_path / "s", workers=2)
        assert len(res.failed) == 1 and res.executed == 3
        recs = res.store.records()
        ok_values = sorted(
            r["params"]["value"] for r in recs.values() if r["status"] == "ok"
        )
        assert ok_values == [0, 1, 3]
        [failed] = [r for r in recs.values() if r["status"] == "failed"]
        assert failed["params"]["value"] == 2
        assert "died" in failed["error"] or "broken" in failed["error"]

    def test_timeout_kills_hung_worker(self, tmp_path):
        spec = _spec(
            job="repro.campaigns.testing.hanging_job",
            grid={"value": [0, 1, 2]},
            fixed={"hang_values": [1], "sleep": 120.0},
            timeout=0.75,
            retries=0,
        )
        res = run_campaign(spec, tmp_path / "s", workers=2)
        assert res.wall_time < 60  # the hang did not run its 120 s sleep
        assert len(res.failed) == 1 and res.executed == 2
        [failed] = [
            r for r in res.store.records().values() if r["status"] == "failed"
        ]
        assert failed["params"]["value"] == 1
        assert "timeout" in failed["error"]

    def test_crash_survivors_deterministic_across_schedules(self, tmp_path):
        """Jobs that complete around a crashing sibling produce the same
        content-addressed artifacts under different worker counts (hence
        different crash interleavings) — broken pools don't perturb
        surviving results.

        A pool break charges an attempt to every job that was in flight
        (the culprit is indistinguishable from its siblings), and the
        crasher breaks the pool retries+1 times, so an innocent sibling
        can be caught in more than one break — retries=3 gives innocents
        enough headroom to recover under any interleaving (an innocent
        only fails if it is in flight during all four breaks).  The crash
        for value 2 is deterministic, so there is no inline baseline —
        the job would take down the coordinator itself."""
        spec = _spec(
            job="repro.campaigns.testing.crashing_job",
            fixed={"crash_values": [2]},
            retries=3,
        )
        a = run_campaign(spec, tmp_path / "a", workers=2)
        b = run_campaign(spec, tmp_path / "b", workers=3)
        assert not a.ok and not b.ok
        recs_a, recs_b = a.store.records(), b.store.records()
        ok_a = {h: r for h, r in recs_a.items() if r["status"] == "ok"}
        ok_b = {h: r for h, r in recs_b.items() if r["status"] == "ok"}
        assert len(ok_a) == len(ok_b) == 3
        for h, rec in ok_a.items():
            assert ok_b[h]["content_hash"] == rec["content_hash"]


class TestSummaries:
    def test_summary_counts_failures(self, tmp_path):
        spec = _spec(
            job="repro.campaigns.testing.erroring_job",
            fixed={"fail_values": [0]},
            retries=0,
        )
        res = run_campaign(spec, tmp_path / "s", workers=0)
        summary = summarize(res.store)
        assert summary["jobs"] == {
            "total": 4, "ok": 3, "failed": 1, "pending": 1,
        }
        assert len(summary["artifacts"]) == 3

    def test_summary_is_valid_canonical_json(self, tmp_path):
        res = run_campaign(_spec(), tmp_path / "s", workers=0)
        path = write_summary(res.store)
        data = json.loads(path.read_text())
        assert data["spec_hash"] == res.spec_hash
        assert data["metrics"]["counters"]["test_jobs"] == 4
