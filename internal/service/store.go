package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phasefold/internal/faults"
	"phasefold/internal/obs"
)

// store is the daemon's one result tier: a content-addressed index whose
// entries live on disk under <state-dir>/results or, without a state dir
// (and for results finished while the disk is degraded), on the heap. The
// disk layout is what makes a restart serve yesterday's results
// byte-identically instead of colding the cache. One directory per result:
//
//	<digest>-<fingerprint>/
//	    meta.json       outcome, HTTP code, expiry, per-file checksums
//	    report.json     the JSON result document, stored verbatim
//	    perfetto.json   every export artifact, as rendered at completion
//	    flame.folded
//	    snapshot.prom
//	    snapshot.json
//
// Entries publish atomically: files are written and fsynced into a hidden
// .tmp- directory, then the directory renames into place. A crash mid-write
// leaves only a .tmp- directory the next startup scan removes — never a
// half-entry that could serve.
//
// Disk entries are double-bounded by maxEntries/maxBytes and heap-held ones
// by heapEntries/heapBytes; both share one TTL check (lazily on get plus a
// periodic sweep) and one soonest-expiry eviction. A disk hit re-reads and
// re-verifies every file, so corruption — unparseable meta.json, a missing
// artifact, a checksum or size mismatch — is a miss: the entry is
// quarantined and never served. I/O faults (EIO, ENOSPC, permissions) flip
// the store to degraded: new results are held on the heap instead of
// written, and the sweeper probes the disk until writes succeed again. No
// client request ever fails because the disk is sick.
type store struct {
	root string // the state dir; "" holds every result on the heap
	dir  string // root/results
	quar string // root/quarantine
	ttl  time.Duration

	maxEntries  int // disk bounds
	maxBytes    int64
	heapEntries int // heap bounds; 0 holds nothing on the heap
	heapBytes   int64

	fsys faults.FS
	now  func() time.Time // injectable clock, same pattern as newAdmission
	reg  *obs.Registry
	log  *slog.Logger

	mu        sync.Mutex
	index     map[cacheKey]*storeEntry
	bytes     int64 // held on disk
	held      int   // entries held on the heap
	heldBytes int64
	evictions int64 // heap-held entries evicted
	degraded  bool
	errs      int64 // persist I/O errors observed
}

// storeEntry is the index row for one result: on disk under dir, or held
// on the heap as res.
type storeEntry struct {
	dir    string
	res    *result
	size   int64
	expiry time.Time
}

// storeMeta is the meta.json sidecar: everything needed to reconstruct a
// servable result plus the integrity data that detects corruption.
type storeMeta struct {
	Digest      string             `json:"digest"`
	Fingerprint string             `json:"fingerprint"`
	Outcome     string             `json:"outcome"`
	Code        int                `json:"code"`
	TraceID     string             `json:"trace_id,omitempty"`
	ExpiryUnix  int64              `json:"expiry_unix"`
	Report      fileSum            `json:"report"`
	Artifacts   map[string]fileSum `json:"artifacts,omitempty"`
}

// fileSum pins one stored file's length and content hash.
type fileSum struct {
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

const (
	storeMetaFile   = "meta.json"
	storeReportFile = "report.json"
	storeTmpPrefix  = ".tmp-"
)

// storeSeq disambiguates temp and quarantine directory names within a
// process lifetime.
var storeSeq atomic.Int64

// errCorrupt classifies load failures that are the entry's fault (bad
// bytes) rather than the disk's (I/O error); corrupt entries quarantine,
// I/O errors degrade.
var errCorrupt = errors.New("store: corrupt entry")

// newStore opens the store under root, indexing what an earlier run left
// there; root "" keeps every result on the heap. It holds nothing on the
// heap until heapEntries is set.
func newStore(root string, ttl time.Duration, maxEntries int, maxBytes int64,
	fsys faults.FS, reg *obs.Registry, log *slog.Logger) (*store, error) {
	if ttl <= 0 {
		ttl = 24 * time.Hour
	}
	if maxEntries < 1 {
		maxEntries = 1
	}
	if log == nil {
		log = obs.NopLogger()
	}
	st := &store{
		root:       root,
		ttl:        ttl,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		fsys:       fsys,
		now:        time.Now,
		reg:        reg,
		log:        log,
		index:      make(map[cacheKey]*storeEntry),
	}
	if root == "" {
		return st, nil
	}
	st.dir = filepath.Join(root, "results")
	st.quar = filepath.Join(root, "quarantine")
	if err := fsys.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(st.quar, 0o755); err != nil {
		return nil, err
	}
	st.loadIndex()
	return st, nil
}

// entryName is the on-disk directory name for a key. Digest and fingerprint
// are both lowercase hex, so the name is filesystem-safe by construction.
func entryName(k cacheKey) string { return k.Digest + "-" + k.Fingerprint }

// loadIndex scans the results directory at startup: valid unexpired entries
// enter the index, expired entries are removed, invalid ones quarantined,
// and .tmp- leftovers from a crash mid-put deleted.
func (st *store) loadIndex() {
	entries, err := st.fsys.ReadDir(st.dir)
	if err != nil {
		st.fault(err)
		return
	}
	now := st.now()
	for _, de := range entries {
		name := de.Name()
		dir := filepath.Join(st.dir, name)
		if strings.HasPrefix(name, storeTmpPrefix) {
			_ = st.fsys.RemoveAll(dir)
			continue
		}
		if !de.IsDir() {
			continue
		}
		meta, err := st.readMeta(dir)
		if err != nil || entryName(cacheKey{meta.Digest, meta.Fingerprint}) != name {
			st.quarantineDir(dir, "bad meta.json at startup")
			continue
		}
		expiry := time.Unix(meta.ExpiryUnix, 0)
		if now.After(expiry) {
			_ = st.fsys.RemoveAll(dir)
			st.event("expired")
			continue
		}
		size := meta.Report.Bytes
		for _, a := range meta.Artifacts {
			size += a.Bytes
		}
		st.index[cacheKey{meta.Digest, meta.Fingerprint}] = &storeEntry{dir: dir, size: size, expiry: expiry}
		st.bytes += size
	}
	st.mu.Lock()
	st.evictLocked()
	st.gaugesLocked()
	st.mu.Unlock()
	st.log.Info("result store loaded", "entries", len(st.index), "bytes", st.bytes)
}

// readMeta reads and parses an entry's meta.json. JSON garbage is corrupt;
// the caller decides between quarantine and fault from the error class.
func (st *store) readMeta(dir string) (*storeMeta, error) {
	b, err := st.fsys.ReadFile(filepath.Join(dir, storeMetaFile))
	if err != nil {
		return nil, err
	}
	var m storeMeta
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return &m, nil
}

// put files a finished result: on disk while persistence is up, on the
// heap otherwise. A failed write degrades the store and holds the result
// instead, so the client is never affected.
func (st *store) put(r *result) {
	if st.root == "" || st.isDegraded() || !st.persist(r) {
		st.hold(r)
	}
}

// hold keeps r on the heap. A result larger than the heap byte bound on its
// own is not held: it would only flush everything else.
func (st *store) hold(r *result) {
	if st.heapEntries < 1 || (st.heapBytes > 0 && r.size > st.heapBytes) {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.removeDir(st.dropLocked(r.key))
	st.index[r.key] = &storeEntry{res: r, size: r.size, expiry: st.now().Add(st.ttl)}
	st.held++
	st.heldBytes += r.size
	st.evictLocked()
	st.gaugesLocked()
}

// persist writes r to disk and reports whether it now serves from there.
func (st *store) persist(r *result) bool {
	if st.maxBytes > 0 && r.size > st.maxBytes {
		return false // would only flush everything else
	}

	tmp := filepath.Join(st.dir, fmt.Sprintf("%s%s-%d", storeTmpPrefix,
		shortDigest(r.key.Digest), storeSeq.Add(1)))
	if err := st.fsys.MkdirAll(tmp, 0o755); err != nil {
		st.fault(err)
		return false
	}
	meta := storeMeta{
		Digest:      r.key.Digest,
		Fingerprint: r.key.Fingerprint,
		Outcome:     r.outcome,
		Code:        r.code,
		TraceID:     r.trace,
		ExpiryUnix:  st.now().Add(st.ttl).Unix(),
		Report:      sumOf(r.report),
	}
	werr := st.writeEntryFile(tmp, storeReportFile, r.report)
	if len(r.artifacts) > 0 {
		meta.Artifacts = make(map[string]fileSum, len(r.artifacts))
		for name, data := range r.artifacts {
			meta.Artifacts[name] = sumOf(data)
			if werr == nil {
				werr = st.writeEntryFile(tmp, name, data)
			}
		}
	}
	if werr == nil {
		// meta.json last: its presence marks the entry complete even before
		// the directory rename publishes it.
		mb, _ := json.MarshalIndent(meta, "", "  ")
		werr = st.writeEntryFile(tmp, storeMetaFile, mb)
	}
	if werr != nil {
		_ = st.fsys.RemoveAll(tmp)
		st.fault(werr)
		return false
	}

	final := filepath.Join(st.dir, entryName(r.key))
	st.mu.Lock()
	defer st.mu.Unlock()
	// Rename over a non-empty directory fails; retire the old entry first.
	// A reader racing this sees a load error and treats it as a miss, never
	// a half-entry.
	st.removeDir(st.dropLocked(r.key))
	if err := st.fsys.Rename(tmp, final); err != nil {
		_ = st.fsys.RemoveAll(tmp)
		st.faultLocked(err)
		return false
	}
	st.index[r.key] = &storeEntry{dir: final, size: r.size, expiry: time.Unix(meta.ExpiryUnix, 0)}
	st.bytes += r.size
	st.event("put")
	st.evictLocked()
	st.gaugesLocked()
	return true
}

// writeEntryFile writes one file inside a pending entry: create, write,
// fsync, close — the rename that publishes the whole directory comes later.
func (st *store) writeEntryFile(dir, name string, data []byte) error {
	f, err := st.fsys.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sumOf(data []byte) fileSum {
	h := sha256.Sum256(data)
	return fileSum{Bytes: int64(len(data)), SHA256: hex.EncodeToString(h[:])}
}

// get returns the stored result for k, or nil on miss, expiry, corruption,
// or I/O fault — the caller falls through to a fresh analysis either way.
// A disk hit reads and verifies every file of the entry.
func (st *store) get(k cacheKey) *result { return st.fetch(k, nil) }

// fetch is get, reading from disk only the artifacts keep accepts (nil
// keeps all): a client fetching one artifact pays for that file alone.
func (st *store) fetch(k cacheKey, keep func(name string) bool) *result {
	st.mu.Lock()
	e, ok := st.index[k]
	if !ok {
		st.mu.Unlock()
		return nil
	}
	if st.now().After(e.expiry) {
		// Lazy TTL: expired entries die on first touch, not only at sweep.
		dir := st.dropLocked(k)
		st.gaugesLocked()
		st.mu.Unlock()
		st.expire(dir)
		return nil
	}
	res, dir := e.res, e.dir
	st.mu.Unlock()
	if res != nil {
		return res
	}

	res, err := st.load(k, dir, keep)
	if err != nil {
		if errors.Is(err, errCorrupt) || errors.Is(err, fs.ErrNotExist) {
			st.quarantine(k, dir, err)
		} else {
			st.forget(k, dir)
			st.fault(err)
		}
		return nil
	}
	st.event("hit")
	return res
}

// load reads an entry back into a servable result, verifying every file it
// reads against the checksums pinned in meta.json. Any mismatch is
// errCorrupt.
func (st *store) load(k cacheKey, dir string, keep func(name string) bool) (*result, error) {
	meta, err := st.readMeta(dir)
	if err != nil {
		return nil, err
	}
	if meta.Digest != k.Digest || meta.Fingerprint != k.Fingerprint {
		return nil, fmt.Errorf("%w: meta names %s-%s", errCorrupt, meta.Digest, meta.Fingerprint)
	}
	report, err := st.readVerified(dir, storeReportFile, meta.Report)
	if err != nil {
		return nil, err
	}
	res := &result{
		key:     k,
		outcome: meta.Outcome,
		code:    meta.Code,
		trace:   meta.TraceID,
		report:  report,
	}
	if len(meta.Artifacts) > 0 {
		res.artifacts = make(map[string][]byte, len(meta.Artifacts))
		for name, want := range meta.Artifacts {
			if name == "" || filepath.Base(name) != name {
				return nil, fmt.Errorf("%w: artifact name %q", errCorrupt, name)
			}
			if keep != nil && !keep(name) {
				continue
			}
			data, err := st.readVerified(dir, name, want)
			if err != nil {
				return nil, err
			}
			res.artifacts[name] = data
		}
	}
	res.weigh()
	return res, nil
}

// readVerified reads one entry file and checks it against its pinned sum —
// a truncated or bit-rotted file is corruption, not a servable result.
func (st *store) readVerified(dir, name string, want fileSum) ([]byte, error) {
	data, err := st.fsys.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	if got := sumOf(data); got != want {
		return nil, fmt.Errorf("%w: %s is %d bytes sha %s, meta pins %d bytes sha %s",
			errCorrupt, name, got.Bytes, got.SHA256[:12], want.Bytes, want.SHA256[:12])
	}
	return data, nil
}

// forget drops an entry from the index without touching the disk (used when
// the disk itself is the problem).
func (st *store) forget(k cacheKey, dir string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.index[k]; ok && e.dir == dir {
		st.dropLocked(k)
		st.gaugesLocked()
	}
}

// dropLocked removes k from the index and its tier's tally, returning the
// entry's directory ("" when it was held on the heap) for the caller to
// remove.
func (st *store) dropLocked(k cacheKey) string {
	e, ok := st.index[k]
	if !ok {
		return ""
	}
	delete(st.index, k)
	if e.res != nil {
		st.held--
		st.heldBytes -= e.size
	} else {
		st.bytes -= e.size
	}
	return e.dir
}

// removeDir deletes a dropped entry's directory; "" is a heap-held entry
// with nothing on disk.
func (st *store) removeDir(dir string) {
	if dir != "" {
		_ = st.fsys.RemoveAll(dir)
	}
}

// expire removes an entry dropped past its TTL.
func (st *store) expire(dir string) {
	if dir != "" {
		st.removeDir(dir)
		st.event("expired")
	}
}

// quarantine moves a corrupt entry out of the serving tree so it is never
// loaded again but stays available for a post-mortem.
func (st *store) quarantine(k cacheKey, dir string, cause error) {
	st.forget(k, dir)
	st.quarantineDir(dir, cause.Error())
}

func (st *store) quarantineDir(dir, cause string) {
	dest := filepath.Join(st.quar, fmt.Sprintf("%s-%d", filepath.Base(dir), storeSeq.Add(1)))
	if err := st.fsys.Rename(dir, dest); err != nil {
		_ = st.fsys.RemoveAll(dir)
	}
	st.event("quarantined")
	st.log.Warn("result store quarantined entry", "entry", filepath.Base(dir), "cause", cause)
}

// evictLocked enforces both tiers' double bounds, evicting each tier's
// soonest-to-expire entries first (the TTL is constant, so expiry order is
// insertion order). Callers hold the mutex; the RemoveAll happens inline —
// eviction is rare and the directories are small.
func (st *store) evictLocked() {
	for {
		diskOver := len(st.index)-st.held > st.maxEntries || (st.maxBytes > 0 && st.bytes > st.maxBytes)
		heapOver := st.held > st.heapEntries || (st.heapBytes > 0 && st.heldBytes > st.heapBytes)
		if !diskOver && !heapOver {
			return
		}
		heap := !diskOver
		var victim cacheKey
		var pick *storeEntry
		for k, e := range st.index {
			if (e.res != nil) == heap && (pick == nil || e.expiry.Before(pick.expiry)) {
				victim, pick = k, e
			}
		}
		if pick == nil {
			return
		}
		st.removeDir(st.dropLocked(victim))
		if heap {
			st.evictions++
			st.reg.Counter(obs.MetricCacheEvents, "Result-cache events.",
				obs.Label{K: "event", V: "evicted"}).Inc()
		} else {
			st.event("evicted")
		}
	}
}

// sweep removes expired entries and, when the store is degraded, probes the
// disk — one successful write/read/remove cycle re-enables persistence.
// Called periodically by the service sweeper and directly by tests.
func (st *store) sweep() {
	now := st.now()
	st.mu.Lock()
	var victims []string
	for k, e := range st.index {
		if now.After(e.expiry) {
			victims = append(victims, st.dropLocked(k))
		}
	}
	st.gaugesLocked()
	down := st.degraded
	st.mu.Unlock()
	for _, dir := range victims {
		st.expire(dir)
	}
	if down {
		st.probe()
	}
}

// probe checks whether a degraded disk has healed: a full write/read/remove
// round trip must succeed before persistence resumes.
func (st *store) probe() {
	p := filepath.Join(st.root, ".probe")
	if err := st.writeEntryFile(st.root, ".probe", []byte("ok")); err != nil {
		return
	}
	if _, err := st.fsys.ReadFile(p); err != nil {
		return
	}
	_ = st.fsys.Remove(p)
	st.mu.Lock()
	healed := st.degraded
	st.degraded = false
	st.mu.Unlock()
	if healed {
		st.event("recovered")
		st.log.Info("result store recovered, persistence resumed")
	}
}

// fault records a persistence I/O error and flips the store to degraded:
// new results are held on the heap from here until a probe succeeds.
func (st *store) fault(err error) {
	st.mu.Lock()
	st.faultLocked(err)
	st.mu.Unlock()
}

func (st *store) faultLocked(err error) {
	st.errs++
	st.event("error")
	if !st.degraded {
		st.degraded = true
		st.event("degraded")
		st.log.Warn("result store degraded, holding new results in memory", "cause", err)
	}
}

func (st *store) isDegraded() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.degraded
}

// stats returns the disk tier's (entries, bytes, errors, degraded) for
// /v1/stats.
func (st *store) stats() (int, int64, int64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.index) - st.held, st.bytes, st.errs, st.degraded
}

// heapStats returns the heap tier's (entries, bytes, evictions).
func (st *store) heapStats() (int, int64, int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.held, st.heldBytes, st.evictions
}

func (st *store) event(event string) {
	st.reg.Counter(obs.MetricPersistEvents, "Durable result-store events.",
		obs.Label{K: "event", V: event}).Inc()
}

func (st *store) gaugesLocked() {
	st.reg.Gauge(obs.MetricCacheEntries, "Results held on the heap.").Set(float64(st.held))
	st.reg.Gauge(obs.MetricCacheBytes, "Result bytes held on the heap.").Set(float64(st.heldBytes))
	if st.root != "" {
		st.reg.Gauge(obs.MetricPersistEntries, "Results held by the durable store.").Set(float64(len(st.index) - st.held))
		st.reg.Gauge(obs.MetricPersistBytes, "Bytes held by the durable store.").Set(float64(st.bytes))
	}
}
