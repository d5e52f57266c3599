package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"phasefold/internal/faults"
)

func fakeResult(digest string, bytes int) *result {
	r := &result{
		key:     cacheKey{Digest: digest, Fingerprint: "fp"},
		outcome: "ok",
		code:    200,
		report:  make([]byte, bytes),
	}
	r.weigh()
	return r
}

// newHeapStore is a memory-only store holding at most entries results and
// maxBytes bytes on the heap. Its clock ticks a second per reading, so
// soonest-expiry order is insertion order.
func newHeapStore(t *testing.T, entries int, maxBytes int64) *store {
	t.Helper()
	st, err := newStore("", time.Hour, 1, 0, nil, nil, nil)
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	st.heapEntries, st.heapBytes = entries, maxBytes
	base, tick := time.Now(), 0
	st.now = func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) }
	return st
}

func TestCacheLRUEntryBound(t *testing.T) {
	st := newHeapStore(t, 3, 0)
	for i := 0; i < 5; i++ {
		st.put(fakeResult(fmt.Sprintf("d%d", i), 10))
	}
	entries, _, evictions := st.heapStats()
	if entries != 3 || evictions != 2 {
		t.Fatalf("entries %d evictions %d, want 3 and 2", entries, evictions)
	}
	// The two oldest are gone, the three newest remain.
	for i := 0; i < 2; i++ {
		if st.get(cacheKey{Digest: fmt.Sprintf("d%d", i), Fingerprint: "fp"}) != nil {
			t.Errorf("d%d survived past the entry bound", i)
		}
	}
	for i := 2; i < 5; i++ {
		if st.get(cacheKey{Digest: fmt.Sprintf("d%d", i), Fingerprint: "fp"}) == nil {
			t.Errorf("d%d evicted while newer entries existed", i)
		}
	}
}

func TestCacheByteBound(t *testing.T) {
	st := newHeapStore(t, 100, 250)
	st.put(fakeResult("a", 100))
	st.put(fakeResult("b", 100))
	st.put(fakeResult("c", 100)) // 300 bytes > 250: "a" must go
	entries, bytes, _ := st.heapStats()
	if entries != 2 || bytes != 200 {
		t.Fatalf("entries %d bytes %d, want 2 and 200", entries, bytes)
	}
	if st.get(cacheKey{Digest: "a", Fingerprint: "fp"}) != nil {
		t.Error("oldest entry survived the byte bound")
	}

	// An entry bigger than the whole budget is refused outright — holding
	// it would only flush everything else.
	st.put(fakeResult("huge", 1000))
	if st.get(cacheKey{Digest: "huge", Fingerprint: "fp"}) != nil {
		t.Error("over-budget entry was held")
	}
	if entries, _, _ := st.heapStats(); entries != 2 {
		t.Errorf("over-budget put disturbed the store: %d entries", entries)
	}
}

func TestCacheReplaceAdjustsBytes(t *testing.T) {
	st := newHeapStore(t, 10, 0)
	st.put(fakeResult("a", 100))
	st.put(fakeResult("a", 40)) // same key, smaller render
	entries, bytes, _ := st.heapStats()
	if entries != 1 || bytes != 40 {
		t.Fatalf("after replace: entries %d bytes %d, want 1 and 40", entries, bytes)
	}
}

func TestHeapEntryExpires(t *testing.T) {
	st := newHeapStore(t, 10, 0)
	res := fakeResult("a", 10)
	st.put(res)
	if st.get(res.key) != res {
		t.Fatal("fresh heap-held entry missed")
	}
	base := st.now()
	st.now = func() time.Time { return base.Add(2 * time.Hour) }
	if st.get(res.key) != nil {
		t.Error("heap-held entry served past its TTL")
	}
	st.put(fakeResult("b", 10))
	st.now = func() time.Time { return base.Add(4 * time.Hour) }
	st.sweep()
	if entries, bytes, _ := st.heapStats(); entries != 0 || bytes != 0 {
		t.Errorf("after expiry: %d entries / %d bytes held, want none", entries, bytes)
	}
}

func TestFlightGroupLeaderAndWaiters(t *testing.T) {
	g := newFlightGroup()
	k := cacheKey{Digest: "d", Fingerprint: "fp"}
	fl, leader := g.join(k)
	if !leader {
		t.Fatal("first join is not the leader")
	}
	fl2, leader2 := g.join(k)
	if leader2 || fl2 != fl {
		t.Fatal("second join did not coalesce onto the first flight")
	}

	want := fakeResult("d", 10)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-fl.done
			if fl.res != want {
				t.Error("waiter saw a different result")
			}
		}()
	}
	g.complete(k, want)
	wg.Wait()

	// The flight is retired: the next join starts fresh.
	if _, leader := g.join(k); !leader {
		t.Error("flight not retired after complete")
	}
}

func TestFlightGroupAbortReleasesWaitersNil(t *testing.T) {
	g := newFlightGroup()
	k := cacheKey{Digest: "d", Fingerprint: "fp"}
	fl, _ := g.join(k)
	g.abort(k)
	<-fl.done
	if fl.res != nil {
		t.Fatal("aborted flight carries a result")
	}
	// Aborting an unknown key is a no-op, not a panic.
	g.abort(cacheKey{Digest: "ghost", Fingerprint: "fp"})
}

func TestStoreFetchReadsOnlyKeptArtifacts(t *testing.T) {
	root := t.TempDir()
	st := newTestStore(t, root, time.Hour, 16, 1<<20, nil)
	res := makeStoreResult("abcd77", "fp01")
	st.put(res)
	flame := filepath.Join(root, "results", entryName(res.key), artifactFlame)
	if err := os.WriteFile(flame, []byte("rotted"), 0o644); err != nil {
		t.Fatal(err)
	}

	// One artifact is read and verified alone; the rotted file is not read.
	got := st.fetch(res.key, func(name string) bool { return name == artifactPerfetto })
	if got == nil || len(got.artifacts) != 1 || !bytes.Equal(got.artifacts[artifactPerfetto], res.artifacts[artifactPerfetto]) {
		t.Fatalf("fetch of one artifact = %+v, want perfetto alone, byte-identical", got)
	}
	if !bytes.Equal(got.report, res.report) {
		t.Error("fetch returned a different report")
	}
	// A full read still verifies every file and quarantines the entry.
	if st.get(res.key) != nil {
		t.Error("entry with a rotted artifact served on a full read")
	}
	if st.fetch(res.key, func(string) bool { return false }) != nil {
		t.Error("quarantined entry served")
	}
}

func TestStateDirHoldsNoResultOnHeap(t *testing.T) {
	s, ts := newTestService(t, func(c *Config) { c.StateDir = t.TempDir() })
	data := pristineTrace(t)
	if resp, body := upload(t, ts.URL, data, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d, body %s", resp.StatusCode, body)
	}
	if resp, _ := upload(t, ts.URL, data, nil); resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("re-upload X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if art := getBody(t, ts.URL+"/v1/results/"+digestOf(data)+"/"+artifactPerfetto); len(art) == 0 {
		t.Fatal("empty perfetto artifact")
	}
	// The disk serves every hit; nothing is kept on the heap beside it.
	if st := s.Snapshot(); st.CacheEntries != 0 || st.CacheBytes != 0 || st.PersistEntries != 1 {
		t.Errorf("heap %d entries / %d bytes, disk %d entries; want 0 / 0 on the heap, 1 on disk",
			st.CacheEntries, st.CacheBytes, st.PersistEntries)
	}
}

func TestDegradedPutServesAfterHeal(t *testing.T) {
	ffs := &faults.FaultyFS{
		Err: syscall.EIO,
		Match: func(op, path string) bool {
			return (op == "write" || op == "sync") && strings.Contains(path, "results")
		},
	}
	s, ts := newTestService(t, func(c *Config) {
		c.StateDir = t.TempDir()
		c.FS = ffs
	})
	data := pristineTrace(t)
	if resp, body := upload(t, ts.URL, data, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload during disk fault: status %d, body %s", resp.StatusCode, body)
	}
	ffs.Err = nil
	s.store.sweep()
	if st := s.Snapshot(); st.Persistence != "ok" {
		t.Fatalf("persistence = %q after heal, want ok", st.Persistence)
	}
	// The result finished while degraded is still held on the heap: it
	// serves, and it is not counted as persisted.
	resp, _ := upload(t, ts.URL, data, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("after heal: status %d X-Cache %q, want 200 hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if st := s.Snapshot(); st.PersistEntries != 0 || st.CacheEntries != 1 {
		t.Errorf("disk %d entries, heap %d entries; want 0 and 1", st.PersistEntries, st.CacheEntries)
	}
}

func TestVanishedSpoolIsNotStored(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestService(t, func(c *Config) { c.Workers = 1 })
	s.testJobGate = gate
	data := pristineTrace(t)

	type reply struct {
		resp *http.Response
		err  error
	}
	first := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		first <- reply{resp, err}
	}()
	waitCond(t, "worker holds the job", func() bool { return s.pool.depth.Load() == 1 })
	spools, err := filepath.Glob(filepath.Join(s.cfg.SpoolDir, spoolPrefix+"*"))
	if err != nil || len(spools) != 1 {
		t.Fatalf("spool files %v (err %v), want one", spools, err)
	}
	if err := os.Remove(spools[0]); err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	close(gate)

	// The upload fails for want of its spool file, not for its bytes: a
	// temporary 503, and nothing stored under the content key.
	r := <-first
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.resp.StatusCode != http.StatusServiceUnavailable || r.resp.Header.Get("Retry-After") == "" {
		t.Fatalf("vanished spool: status %d Retry-After %q, want 503 with Retry-After",
			r.resp.StatusCode, r.resp.Header.Get("Retry-After"))
	}
	resp, body := upload(t, ts.URL, data, nil)
	var doc reportDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("re-upload body: %v", err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" || doc.Outcome != "ok" {
		t.Errorf("re-upload: status %d X-Cache %q outcome %q, want 200 miss ok",
			resp.StatusCode, resp.Header.Get("X-Cache"), doc.Outcome)
	}
}

// spoolWatchFS records, as each result-store file is created, whether an
// upload spool file still exists.
type spoolWatchFS struct {
	faults.OSFS
	spoolDir string

	mu       sync.Mutex
	sawSpool []bool
}

func (f *spoolWatchFS) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	if strings.Contains(name, "results") {
		spools, _ := filepath.Glob(filepath.Join(f.spoolDir, spoolPrefix+"*"))
		f.mu.Lock()
		f.sawSpool = append(f.sawSpool, len(spools) > 0)
		f.mu.Unlock()
	}
	return f.OSFS.OpenFile(name, flag, perm)
}

func TestSpoolOutlivesResultWrite(t *testing.T) {
	spool := t.TempDir()
	wfs := &spoolWatchFS{spoolDir: spool}
	_, ts := newTestService(t, func(c *Config) {
		c.StateDir = t.TempDir()
		c.SpoolDir = spool
		c.FS = wfs
	})
	if resp, body := upload(t, ts.URL, pristineTrace(t), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d, body %s", resp.StatusCode, body)
	}
	// A crash while the result is being written must still find the spool
	// file, or the journaled job could be neither settled nor re-run.
	wfs.mu.Lock()
	saw := append([]bool(nil), wfs.sawSpool...)
	wfs.mu.Unlock()
	if len(saw) == 0 {
		t.Fatal("no result file was written")
	}
	for i, ok := range saw {
		if !ok {
			t.Fatalf("spool file gone before result file %d was written", i)
		}
	}
	if spools, _ := filepath.Glob(filepath.Join(spool, spoolPrefix+"*")); len(spools) != 0 {
		t.Errorf("spool files left after the job finished: %v", spools)
	}
}
