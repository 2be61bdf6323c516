// Package session makes conversational querying a serving workload.
//
// The source paper names multi-turn dialogue — follow-ups, ellipsis,
// context tracking — as a headline open challenge for NLIDBs, and the
// dialogue managers in internal/dialogue resolve those follow-ups. What
// was missing is everything that makes a workload servable: this package
// holds thousands of live conversations behind opaque session IDs in a
// sharded store with TTL eviction and a hard memory budget (LRU under
// pressure), serializes turns within a conversation while letting
// different conversations proceed in parallel over one shared dialogue
// manager, answers repeated follow-ups from a context-keyed cache (the
// same utterance under different dialogue context is never conflated),
// and reports itself through the standard observability surface
// (nlidb_session_* metrics, session/turn span attributes, slow-log
// session tags).
//
// A session turn is a request like any other. The dialogue manager reads
// a context-free turn — a conversation's first question, or the first
// after a reset — through the serving backend's Ask, so it answers with
// the same family, SQL and rows as POST /query, and repeats of it hit the
// backend's answer cache. The backend's request runs inside the turn's
// trace, so each turn is one trace with the chain's attempt spans under
// the session root.
//
// All methods are safe for concurrent use.
package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"nlidb/internal/dialogue"
	"nlidb/internal/obs"
	"nlidb/internal/qcache"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Metric family names the store publishes.
const (
	// MetricLive gauges the number of live sessions.
	MetricLive = "nlidb_session_live"
	// MetricCreated counts sessions created.
	MetricCreated = "nlidb_session_created_total"
	// MetricEnded counts sessions ended explicitly by the client.
	MetricEnded = "nlidb_session_ended_total"
	// MetricEvictions counts sessions removed by the store, labeled by
	// reason ("ttl" or "memory").
	MetricEvictions = "nlidb_session_evictions_total"
	// MetricTurns counts resolved turns, labeled by intent.
	MetricTurns = "nlidb_session_turns_total"
	// MetricFollowups counts context-dependent turns (refine, aggregate,
	// shift), labeled by resolution outcome ("resolved" or "failed").
	MetricFollowups = "nlidb_session_followups_total"
	// MetricContextHits counts context-bearing turns answered from the
	// context-keyed turn cache.
	MetricContextHits = "nlidb_session_context_hits_total"
	// MetricContextMisses counts context-bearing turns that had to run the
	// full resolve+execute path.
	MetricContextMisses = "nlidb_session_context_misses_total"
	// MetricTurnSeconds is the turn-latency histogram.
	MetricTurnSeconds = "nlidb_session_turn_seconds"
	// MetricMemory gauges the accounted memory cost of live sessions.
	MetricMemory = "nlidb_session_memory_bytes"
)

var (
	// ErrNotFound means the session ID was never issued (or its tombstone
	// has aged out).
	ErrNotFound = errors.New("session: not found")
	// ErrExpired means the session existed but is gone: TTL expiry, memory
	// eviction, or an explicit End. HTTP maps it to 410 Gone.
	ErrExpired = errors.New("session: expired")
)

// Responder resolves one utterance against a caller-owned conversation
// context. *dialogue.Agent and *dialogue.Frame satisfy it; the store
// serializes turns per conversation, so one shared Responder (its indexes
// immutable after construction) serves every live session.
type Responder interface {
	RespondWith(ctx context.Context, conv *dialogue.Context, utterance string) (*dialogue.Response, error)
}

// Config tunes a Store. Responder and DB are required; zero values
// elsewhere get defaults.
type Config struct {
	// Responder resolves utterances (required).
	Responder Responder
	// DB is the served database; its fingerprint keys the turn cache so
	// data mutations invalidate cached turns (required).
	DB *sqldata.Database
	// TTL is the sliding idle lifetime of a session (default 15m). Every
	// turn slides the expiry forward.
	TTL time.Duration
	// MaxSessions caps live sessions (default 65536). At the cap, the
	// least-recently-used session is evicted (reason "memory").
	MaxSessions int
	// MemoryBudget bounds the accounted memory cost of live sessions in
	// bytes (default 64 MiB). Over budget, least-recently-used sessions
	// are evicted (reason "memory").
	MemoryBudget int64
	// Shards is the lock-striping factor (default 16, minimum 1).
	Shards int
	// CacheSize is the entry cap of the turn cache, which holds
	// context-bearing turns only (default 4096; negative disables it).
	CacheSize int
	// Metrics holds the nlidb_session_* families; nil means a private
	// registry. The series are resolved at New, so scrapes see them before
	// the first session.
	Metrics *obs.Registry
	// SlowLog, when non-nil, records slow turns tagged with the session ID.
	SlowLog *obs.SlowLog
	// Traces, when non-nil, retains turn traces.
	Traces *obs.TraceStore
	// NoTrace disables per-turn trace construction.
	NoTrace bool
	// OnEvict, when non-nil, is called (outside store locks) with the ID
	// and reason ("ttl", "memory", "ended") whenever a session is removed —
	// the hook that releases per-session rate-limiter state.
	OnEvict func(id, reason string)
	// Now is the clock, injectable for TTL tests (default time.Now).
	Now func() time.Time
}

// Stats is a point-in-time view of the store. The counts read the
// registry series /metrics exports; stores sharing one registry share
// those series, and so their counts.
type Stats struct {
	Live        int
	Created     int64
	Ended       int64
	EvictedTTL  int64
	EvictedMem  int64
	Turns       int64
	ContextHits int64
	Memory      int64
}

// sessionBaseCost approximates the fixed per-session overhead (maps, LRU
// node, struct, ID strings) charged against the memory budget on top of
// the tracked SQL text.
const sessionBaseCost = 512

// sess is one live conversation. The turn lock serializes utterances
// within the conversation; bookkeeping fields (expiry, LRU position,
// accounted cost) are guarded by the owning shard's lock.
type sess struct {
	id string

	mu   sync.Mutex // serializes turns
	conv *dialogue.Context

	// Guarded by the owning shard's lock:
	expires time.Time
	cost    int64
	prev    *sess
	next    *sess
	gone    bool // removed from the shard while a turn was in flight
}

// tombstoneCap bounds remembered dead-session IDs per shard, so "did this
// ID ever exist" (404 vs 410) stays answerable without unbounded growth.
const tombstoneCap = 256

// storeShard is one lock stripe: live sessions plus an intrusive LRU list
// (head = most recently used) and a bounded tombstone ring.
type storeShard struct {
	mu       sync.Mutex
	sessions map[string]*sess
	head     *sess
	tail     *sess
	mem      int64
	tombs    map[string]struct{}
	tombRing []string
	tombNext int
}

// Store holds live conversations. Build one per served database.
type Store struct {
	cfg    Config
	shards []*storeShard
	cache  *qcache.Cache

	// Registry handles, resolved at New.
	created     *obs.Counter
	ended       *obs.Counter
	evTTL       *obs.Counter
	evMem       *obs.Counter
	turns       [dialogue.IntentReset + 1]*obs.Counter // by intent
	turnSeconds *obs.Histogram
	ctxHits     *obs.Counter
	ctxMiss     *obs.Counter
	resolved    *obs.Counter
	failed      *obs.Counter
	live        *obs.Gauge
	memory      *obs.Gauge
}

// New builds a session store. Config zero values are filled with defaults.
func New(cfg Config) (*Store, error) {
	if cfg.Responder == nil {
		return nil, fmt.Errorf("session: Config.Responder is required")
	}
	if cfg.DB == nil {
		return nil, fmt.Errorf("session: Config.DB is required")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Minute
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 65536
	}
	if cfg.MemoryBudget <= 0 {
		cfg.MemoryBudget = 64 << 20
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.Shards > cfg.MaxSessions {
		cfg.Shards = cfg.MaxSessions
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := obs.OrNew(cfg.Metrics)
	s := &Store{
		cfg:         cfg,
		shards:      make([]*storeShard, cfg.Shards),
		created:     m.Counter(MetricCreated),
		ended:       m.Counter(MetricEnded),
		evTTL:       m.Counter(MetricEvictions, "reason", "ttl"),
		evMem:       m.Counter(MetricEvictions, "reason", "memory"),
		turnSeconds: m.Histogram(MetricTurnSeconds),
		ctxHits:     m.Counter(MetricContextHits),
		ctxMiss:     m.Counter(MetricContextMisses),
		resolved:    m.Counter(MetricFollowups, "outcome", "resolved"),
		failed:      m.Counter(MetricFollowups, "outcome", "failed"),
		live:        m.Gauge(MetricLive),
		memory:      m.Gauge(MetricMemory),
	}
	for i := range s.turns {
		s.turns[i] = m.Counter(MetricTurns, "intent", dialogue.Intent(i).String())
	}
	s.live.Set(0)
	s.memory.Set(0)
	for i := range s.shards {
		s.shards[i] = &storeShard{
			sessions: map[string]*sess{},
			tombs:    map[string]struct{}{},
			tombRing: make([]string, tombstoneCap),
		}
	}
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = 4096
		}
		// The turn cache holds session-shaped entries, so it must not be
		// the gateway's answer cache (whose entries are *resilient.Answer)
		// — and it publishes no nlidb_cache_* families of its own, to keep
		// the gateway cache's counters meaningful. Session-level counters
		// below cover it.
		s.cache = qcache.New(qcache.Config{MaxEntries: size})
	}
	return s, nil
}

// newID returns a 32-hex-char cryptographically random session ID.
func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("session: id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// shardFor picks the shard owning a session ID.
func (s *Store) shardFor(id string) *storeShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// TTL returns the configured session lifetime.
func (s *Store) TTL() time.Duration { return s.cfg.TTL }

// Create opens a new conversation and returns its ID.
func (s *Store) Create() string {
	id := newID()
	se := &sess{id: id, conv: &dialogue.Context{}, cost: sessionBaseCost}
	sh := s.shardFor(id)
	now := s.cfg.Now()
	sh.mu.Lock()
	se.expires = now.Add(s.cfg.TTL)
	sh.sessions[id] = se
	sh.lruPush(se)
	sh.mem += se.cost
	evicted := s.reclaimLocked(sh, now, se)
	sh.mu.Unlock()
	s.created.Inc()
	s.publishGauges()
	s.notifyEvicted(evicted)
	return id
}

// lruPush inserts se at the head (most recently used). Shard lock held.
func (sh *storeShard) lruPush(se *sess) {
	se.prev = nil
	se.next = sh.head
	if sh.head != nil {
		sh.head.prev = se
	}
	sh.head = se
	if sh.tail == nil {
		sh.tail = se
	}
}

// lruRemove unlinks se. Shard lock held.
func (sh *storeShard) lruRemove(se *sess) {
	if se.prev != nil {
		se.prev.next = se.next
	} else {
		sh.head = se.next
	}
	if se.next != nil {
		se.next.prev = se.prev
	} else {
		sh.tail = se.prev
	}
	se.prev, se.next = nil, nil
}

// lruTouch moves se to the head. Shard lock held.
func (sh *storeShard) lruTouch(se *sess) {
	if sh.head == se {
		return
	}
	sh.lruRemove(se)
	sh.lruPush(se)
}

// removeLocked deletes se from the shard and tombstones its ID. Shard lock
// held; the caller reports metrics and runs OnEvict outside the lock.
func (sh *storeShard) removeLocked(se *sess) {
	delete(sh.sessions, se.id)
	sh.lruRemove(se)
	sh.mem -= se.cost
	se.gone = true
	if old := sh.tombRing[sh.tombNext]; old != "" {
		delete(sh.tombs, old)
	}
	sh.tombRing[sh.tombNext] = se.id
	sh.tombs[se.id] = struct{}{}
	sh.tombNext = (sh.tombNext + 1) % len(sh.tombRing)
}

// evicted pairs a removed session ID with its reason, for the OnEvict
// callback deferred to outside the locks.
type evicted struct{ id, reason string }

// reclaimLocked enforces TTL, the session cap, and the memory budget on
// one shard, never evicting keep. Shard lock held. Caps and budgets are
// divided evenly across shards — session IDs are uniformly random, so the
// stripes stay balanced.
func (s *Store) reclaimLocked(sh *storeShard, now time.Time, keep *sess) []evicted {
	var out []evicted
	// TTL first: expired sessions go regardless of pressure.
	for se := sh.tail; se != nil; {
		prev := se.prev
		if se != keep && now.After(se.expires) {
			sh.removeLocked(se)
			s.evTTL.Inc()
			out = append(out, evicted{se.id, "ttl"})
		}
		se = prev
	}
	maxPerShard := s.cfg.MaxSessions / len(s.shards)
	if maxPerShard < 1 {
		maxPerShard = 1
	}
	memPerShard := s.cfg.MemoryBudget / int64(len(s.shards))
	for se := sh.tail; se != nil && (len(sh.sessions) > maxPerShard || sh.mem > memPerShard); {
		prev := se.prev
		if se != keep {
			sh.removeLocked(se)
			s.evMem.Inc()
			out = append(out, evicted{se.id, "memory"})
		}
		se = prev
	}
	return out
}

// notifyEvicted runs the OnEvict hook for each removed session.
func (s *Store) notifyEvicted(evs []evicted) {
	if s.cfg.OnEvict == nil {
		return
	}
	for _, e := range evs {
		s.cfg.OnEvict(e.id, e.reason)
	}
}

// publishGauges refreshes the live-session and memory gauges.
func (s *Store) publishGauges() {
	var live int64
	var mem int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		live += int64(len(sh.sessions))
		mem += sh.mem
		sh.mu.Unlock()
	}
	s.live.Set(live)
	s.memory.Set(mem)
}

// lookup finds a live session, expiring it lazily if its TTL passed, and
// slides its expiry forward on success.
func (s *Store) lookup(id string) (*sess, error) {
	sh := s.shardFor(id)
	now := s.cfg.Now()
	sh.mu.Lock()
	se, ok := sh.sessions[id]
	if !ok {
		_, dead := sh.tombs[id]
		sh.mu.Unlock()
		if dead {
			return nil, ErrExpired
		}
		return nil, ErrNotFound
	}
	if now.After(se.expires) {
		sh.removeLocked(se)
		sh.mu.Unlock()
		s.evTTL.Inc()
		s.publishGauges()
		s.notifyEvicted([]evicted{{id, "ttl"}})
		return nil, ErrExpired
	}
	se.expires = now.Add(s.cfg.TTL)
	sh.lruTouch(se)
	sh.mu.Unlock()
	return se, nil
}

// End closes a session explicitly. Asking it again returns ErrExpired.
func (s *Store) End(id string) error {
	sh := s.shardFor(id)
	sh.mu.Lock()
	se, ok := sh.sessions[id]
	if !ok {
		_, dead := sh.tombs[id]
		sh.mu.Unlock()
		if dead {
			return ErrExpired
		}
		return ErrNotFound
	}
	sh.removeLocked(se)
	sh.mu.Unlock()
	s.ended.Inc()
	s.publishGauges()
	s.notifyEvicted([]evicted{{id, "ended"}})
	return nil
}

// Len returns the number of live sessions.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.sessions)
		sh.mu.Unlock()
	}
	return n
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Created:     s.created.Value(),
		Ended:       s.ended.Value(),
		EvictedTTL:  s.evTTL.Value(),
		EvictedMem:  s.evMem.Value(),
		ContextHits: s.ctxHits.Value(),
	}
	for _, n := range s.turns {
		st.Turns += n.Value()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Live += len(sh.sessions)
		st.Memory += sh.mem
		sh.mu.Unlock()
	}
	return st
}

// costOf estimates a session's accounted memory cost: fixed overhead plus
// the tracked SQL text.
func costOf(conv *dialogue.Context) int64 {
	c := int64(sessionBaseCost)
	if conv.LastSQL != nil {
		c += int64(len(conv.LastSQL.String()))
	}
	if conv.BeforeAggregate != nil {
		c += int64(len(conv.BeforeAggregate.String()))
	}
	return c
}

// parse is a helper for cached-turn replay; stored SQL always came from a
// stmt's own String, so failure means a store bug, not user input.
func parseStored(sql string) (*sqlparse.SelectStmt, error) {
	if sql == "" {
		return nil, nil
	}
	return sqlparse.Parse(sql)
}
