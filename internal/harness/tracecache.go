package harness

import (
	"sync"
	"time"

	"hprefetch/internal/tracefile"
)

// Replayed traces are decoded once per process and cached in memory,
// for the same reason built workloads are: a replay-backed experiment
// streams the same trace through every scheme of a comparison, and the
// decode (CRC, inflate, delta reconstruction) is the only part of
// replay that costs anything. The cache is a small LRU keyed by file
// identity — path plus the trace's header fingerprint (size + header
// CRC), so an in-place re-record is picked up even when it lands within
// one mtime tick on a coarse-timestamp filesystem — and bounded by
// entry count: a decoded trace holds 67 bytes an event, about 92 MB
// for a gin trace of the default 12M-instruction window, and
// experiments touch at most a handful of distinct files.
//
// Decode failures are negative-cached briefly: when a corrupt trace is
// discovered, every concurrent job of a sweep is about to trip over the
// same file, and re-running the full decode (CRC + inflate over
// megabytes) per job just to re-learn the same corruption would stack
// wasted work on top of a failure. A fingerprint change (the file was
// re-recorded or healed) invalidates a negative entry like any other;
// the TTL catches same-fingerprint repairs (damage beyond the header
// leaves the fingerprint unchanged).
const traceCacheCap = 4

// traceNegTTL bounds how long a decode failure is served from cache.
// It is a variable so the staleness test can compress time.
var traceNegTTL = 5 * time.Second

type traceCacheEntry struct {
	fp     string // tracefile.HeaderFingerprint at decode time
	loaded *tracefile.Loaded
	err    error     // non-nil: negative entry (decode failed)
	when   time.Time // negative entries: when the failure was observed
	used   uint64    // LRU clock
}

var (
	traceCacheMu   sync.Mutex
	traceCache     = map[string]*traceCacheEntry{}
	traceCacheTick uint64
)

// loadTrace returns the decoded in-memory form of the trace at path,
// decoding it on first use.
func loadTrace(path string) (*tracefile.Loaded, error) {
	return loadTraceOpt(path, false)
}

// loadTraceFresh is loadTrace minus the negative cache: the self-heal
// path uses it right after republishing an object, when a stale
// failure entry for the same path (and, for damage beyond the header,
// the same fingerprint) may still be inside its TTL.
func loadTraceFresh(path string) (*tracefile.Loaded, error) {
	return loadTraceOpt(path, true)
}

func loadTraceOpt(path string, skipNegative bool) (*tracefile.Loaded, error) {
	fp, err := tracefile.HeaderFingerprint(path)
	if err != nil {
		return nil, err
	}

	traceCacheMu.Lock()
	traceCacheTick++
	if e, ok := traceCache[path]; ok && e.fp == fp {
		if e.err == nil {
			e.used = traceCacheTick
			l := e.loaded
			traceCacheMu.Unlock()
			return l, nil
		}
		if !skipNegative && time.Since(e.when) < traceNegTTL {
			e.used = traceCacheTick
			err := e.err
			traceCacheMu.Unlock()
			return nil, err
		}
		// Expired (or bypassed) negative entry: drop it and re-decode.
		delete(traceCache, path)
	}
	traceCacheMu.Unlock()

	// Decode outside the lock; concurrent first loads of the same path
	// duplicate work harmlessly (the single-flight Runner above already
	// collapses identical runs).
	l, err := tracefile.Load(path)

	traceCacheMu.Lock()
	defer traceCacheMu.Unlock()
	traceCacheTick++
	e := &traceCacheEntry{fp: fp, loaded: l, err: err, used: traceCacheTick}
	if err != nil {
		e.loaded = nil
		e.when = time.Now()
	}
	traceCache[path] = e
	for len(traceCache) > traceCacheCap {
		oldPath, oldUsed := "", ^uint64(0)
		for p, ent := range traceCache {
			if ent.used < oldUsed {
				oldPath, oldUsed = p, ent.used
			}
		}
		delete(traceCache, oldPath)
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// EvictTrace drops any cached decode (positive or negative) for path.
// The self-heal path calls it the moment an artifact is quarantined so
// no job replays, or keeps failing from, a cached view of a file that
// is gone or about to be replaced.
func EvictTrace(path string) {
	traceCacheMu.Lock()
	delete(traceCache, path)
	traceCacheMu.Unlock()
}
