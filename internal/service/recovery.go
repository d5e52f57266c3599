package service

import (
	"os"
	"path/filepath"
	"strings"
	"time"

	"phasefold/internal/obs"
)

// Startup recovery: the daemon answers for everything it accepted before a
// crash. Replaying the journal yields the jobs that were admitted but never
// completed; each is settled one of three ways:
//
//	result already in the durable store  → mark done (it finished; only the
//	                                       done marker was lost)
//	spool file still on disk             → re-enqueue and run to completion
//	spool file gone                      → mark done and count it lost (the
//	                                       client will re-upload; nothing
//	                                       can be recomputed from nothing)
//
// Then the spool directory is swept: a crash between os.CreateTemp and
// enqueue leaks an upload temp file no journal entry claims, and without
// this sweep it leaks forever. Only stale files are touched — the age gate
// keeps a shared spool directory safe for other live instances.

// spoolPrefix names upload temp files; the sweep only ever touches these.
const spoolPrefix = "phasefoldd-upload-"

// defaultSpoolSweepAge is how old an unclaimed spool file must be before
// the startup sweep removes it.
const defaultSpoolSweepAge = 15 * time.Minute

// recoveredTrace rebuilds a journaled job's lifecycle trace under its
// original identity: the root starts at the original acceptance time (so
// the tree spans the crash), a closed "intake" span marks the pre-crash
// acceptance, and an open "recovery" span covers the replay. Records from
// journals written before trace persistence get a fresh ID.
func (s *Service) recoveredTrace(rec journalRecord, now time.Time) (*jobTrace, *obs.Span) {
	id := rec.Trace
	if id == "" {
		id = obs.NewTraceID()
	}
	accepted := now
	if rec.AcceptedNS > 0 {
		accepted = time.Unix(0, rec.AcceptedNS)
	}
	jt := newJobTrace(id, rec.Tenant, accepted)
	jt.recovered = true
	jt.root.SetAttr("recovered", true)
	jt.setDigest(rec.Digest, rec.Size)
	intake := jt.stageAt(stageIntake, accepted)
	intake.SetAttr("pre_crash", true)
	// The intake span runs from the original acceptance to the replay: it
	// covers the crash and the downtime, which is exactly the story.
	intake.EndAt(now)
	recSpan := jt.stageAt(stageRecovery, now)
	return jt, recSpan
}

// recoverState replays the journal's pending records and sweeps orphaned
// spool files. It runs inside New, after the worker pool is up.
func (s *Service) recoverState(pending []journalRecord) {
	for _, rec := range pending {
		k := rec.key()
		now := time.Now()
		if res := s.store.get(k); res != nil {
			// The job finished and persisted; only its done marker was lost
			// in the crash. Settle.
			jt, recSpan := s.recoveredTrace(rec, now)
			recSpan.SetAttr("result", "settled")
			recSpan.End()
			jt.stage(stageSettle).End()
			jt.setCache("hit")
			s.jobs.add(jt)
			s.wal.done(k)
			s.finishTrace(jt, res.outcome)
			continue
		}
		if _, err := os.Stat(rec.Spool); err != nil {
			s.nLost.Add(1)
			s.reg.Counter(obs.MetricJournalEvents, "Write-ahead intake-journal events.",
				obs.Label{K: "event", V: "lost"}).Inc()
			s.log.Warn("journaled job unrecoverable, spool file missing",
				"trace", rec.Trace, "digest", shortDigest(rec.Digest), "spool", rec.Spool)
			jt, recSpan := s.recoveredTrace(rec, now)
			recSpan.SetAttr("result", "lost")
			recSpan.End()
			s.jobs.add(jt)
			s.wal.done(k)
			s.finishTrace(jt, "lost")
			continue
		}
		jt, recSpan := s.recoveredTrace(rec, now)
		j := &job{key: k, tenant: rec.Tenant, path: rec.Spool, text: rec.Text,
			size: rec.Size, jt: jt}
		if _, leader := s.fly.join(k); !leader {
			continue // a duplicate record is already being re-run
		}
		s.jobs.add(jt)
		s.nRecovered.Add(1)
		s.reg.Counter(obs.MetricJournalEvents, "Write-ahead intake-journal events.",
			obs.Label{K: "event", V: "recovered"}).Inc()
		s.log.Info("re-enqueueing journaled job", "trace", jt.id,
			"digest", shortDigest(rec.Digest), "tenant", rec.Tenant, "bytes", rec.Size)
		go s.enqueueRecovered(j, recSpan)
	}
	s.sweepOrphanSpools(pending)
}

// enqueueRecovered admits a recovered job, waiting out a full queue instead
// of shedding it — recovery has no client to answer 503 to, and startup
// backlog drains quickly. If the service drains first, the flight is
// aborted and the journal entry stays pending for the next start. The
// recovery span covers the wait for queue capacity; the queue span starts
// once the job is actually enqueued.
func (s *Service) enqueueRecovered(j *job, recSpan *obs.Span) {
	for {
		if depth, err := s.pool.enqueue(j); err == nil {
			recSpan.SetAttr("result", "enqueued")
			recSpan.End()
			q := j.jt.stage(stageQueue)
			q.SetAttr("depth", depth)
			j.jt.holdQueueSpan(q)
			j.jt.setState("queued")
			return
		}
		if s.draining.Load() {
			recSpan.SetAttr("result", "drained")
			recSpan.End()
			s.fly.abort(j.key)
			s.finishTrace(j.jt, "canceled")
			return
		}
		select {
		case <-s.runCtx.Done():
			recSpan.SetAttr("result", "drained")
			recSpan.End()
			s.fly.abort(j.key)
			s.finishTrace(j.jt, "canceled")
			return
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// sweepOrphanSpools removes stale upload temp files that no pending journal
// record claims. The age gate protects live spools of other instances
// sharing the directory (and of this one, though at startup none exist yet).
func (s *Service) sweepOrphanSpools(pending []journalRecord) {
	claimed := make(map[string]bool, len(pending))
	for _, rec := range pending {
		claimed[filepath.Clean(rec.Spool)] = true
	}
	entries, err := os.ReadDir(s.spoolDir())
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-s.spoolSweepAge)
	swept := 0
	for _, de := range entries {
		if de.IsDir() || !strings.HasPrefix(de.Name(), spoolPrefix) {
			continue
		}
		path := filepath.Join(s.spoolDir(), de.Name())
		if claimed[filepath.Clean(path)] {
			continue
		}
		info, err := de.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(path) == nil {
			swept++
			s.reg.Counter(obs.MetricJournalEvents, "Write-ahead intake-journal events.",
				obs.Label{K: "event", V: "orphan_swept"}).Inc()
		}
	}
	s.nOrphans.Add(int64(swept))
	if swept > 0 {
		s.log.Info("swept orphaned spool files", "count", swept, "dir", s.spoolDir())
	}
}
