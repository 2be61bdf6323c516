package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nlidb/internal/obs"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
)

// ErrBackpressure marks a remote replica that shed the request under
// load (HTTP 429/503): the node is up and healthy but refusing work.
// Shedding is not ill-health — it must not open the replica's breaker —
// but the leg should be retried on another replica, honoring the
// server's Retry-After when the whole shard is shedding.
var ErrBackpressure = errors.New("shard: remote replica shedding")

// RemoteErrorKind classifies a failed remote call for the replica health
// model. The taxonomy is the point of speaking a real protocol: a
// connection refused, a 503 shed, and a 500 execution failure all look
// like "error" to naive code but demand different reactions.
type RemoteErrorKind int

const (
	// RemoteConn is a transport-level failure — connection refused or
	// reset, DNS failure, a socket that never produced response headers.
	// The process is gone or unreachable: counts against the breaker so
	// routing abandons the replica fast.
	RemoteConn RemoteErrorKind = iota
	// RemoteBackpressure is 429/503: the node shed the request under
	// load (or while draining). Not breaker-countable; retry elsewhere,
	// honoring Retry-After.
	RemoteBackpressure
	// RemoteStale is 409: the node refused because its shard map epoch
	// disagrees with the request's. Countable — a misconfigured node is
	// not servable — and the error unwraps to ErrStaleEpoch.
	RemoteStale
	// RemoteTimeout is 504 (the node's own deadline died) or a transport
	// read that outlived the leg budget. Countable, like a local slow
	// replica blowing its leg deadline.
	RemoteTimeout
	// RemoteSemantic is 422: the node answered honestly that the
	// statement cannot be served — it failed on its own terms
	// (resilient.ErrStatement), or the node is itself a coordinator and
	// found it not distributable. Deterministic — retrying any replica
	// repeats it — and not ill-health.
	RemoteSemantic
	// RemoteProtocol is 400 or an unintelligible body: one side speaks
	// the protocol wrong. Deterministic, so never retried, and not
	// breaker-countable — the bug is in the request, not the replica.
	RemoteProtocol
	// RemoteExec is any other 5xx: the node is up, spoke the protocol,
	// and failed executing. Countable (a replica that keeps failing
	// execution is not healthy).
	RemoteExec
)

// String names the kind for spans and logs.
func (k RemoteErrorKind) String() string {
	switch k {
	case RemoteConn:
		return "conn"
	case RemoteBackpressure:
		return "backpressure"
	case RemoteStale:
		return "stale_epoch"
	case RemoteTimeout:
		return "timeout"
	case RemoteSemantic:
		return "semantic"
	case RemoteProtocol:
		return "protocol"
	default:
		return "exec"
	}
}

// RemoteError is one failed remote replica call, classified.
type RemoteError struct {
	// Kind drives the health model's reaction; see the constants.
	Kind RemoteErrorKind
	// Addr is the replica endpoint that failed.
	Addr string
	// Status is the HTTP status, 0 for transport-level failures.
	Status int
	// Msg is the server's error body (or the transport error text).
	Msg string
	// RetryAfter is the server's Retry-After hint (backpressure only).
	RetryAfter time.Duration
	// ShedReason is the server's X-Shed-Reason (backpressure only).
	ShedReason string
	// Err is the underlying transport error, when there was one.
	Err error

	// epochWant is the node's epoch on a stale refusal (for Unwrap).
	epochWant int64
	// epochHave is the epoch the request carried.
	epochHave int64
}

func (e *RemoteError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("shard: remote %s: %s (%d): %s", e.Addr, e.Kind, e.Status, e.Msg)
	}
	return fmt.Sprintf("shard: remote %s: %s: %s", e.Addr, e.Kind, e.Msg)
}

// Unwrap maps each kind onto the sentinel the routing and serving layers
// already understand: conn → ErrNodeDown (breaker fast-path), shedding →
// ErrBackpressure, stale → a *StaleEpochError, node-side deadline →
// context.DeadlineExceeded, semantic → resilient.ErrStatement.
func (e *RemoteError) Unwrap() error {
	switch e.Kind {
	case RemoteConn:
		return ErrNodeDown
	case RemoteBackpressure:
		return ErrBackpressure
	case RemoteStale:
		return &StaleEpochError{Have: e.epochHave, Want: e.epochWant}
	case RemoteTimeout:
		return context.DeadlineExceeded
	case RemoteSemantic:
		return resilient.ErrStatement
	default:
		return e.Err
	}
}

// RemoteConfig tunes the transport shared by a fleet's RemoteNodes. The
// network-level timeouts here are deliberately distinct from the query
// deadline: X-Deadline-Ms bounds how long the query may run; these bound
// how long the network may dawdle before we call the node unreachable.
type RemoteConfig struct {
	// ConnectTimeout bounds the TCP dial (default 1s). A replica that
	// cannot accept a connection inside it is down, whatever the query
	// deadline says.
	ConnectTimeout time.Duration
	// ResponseHeaderTimeout bounds the wait for response headers after
	// the request is written (default 0: the context deadline governs —
	// a query may legitimately compute for its whole budget).
	ResponseHeaderTimeout time.Duration
	// MaxConnsPerReplica bounds concurrent connections per endpoint
	// (default 32), idle ones included — the pool.
	MaxConnsPerReplica int
	// MaxErrorBody bounds how much of an error response body is read
	// (default 8 KiB).
	MaxErrorBody int64
}

func (rc RemoteConfig) withDefaults() RemoteConfig {
	if rc.ConnectTimeout <= 0 {
		rc.ConnectTimeout = time.Second
	}
	if rc.MaxConnsPerReplica <= 0 {
		rc.MaxConnsPerReplica = 32
	}
	if rc.MaxErrorBody <= 0 {
		rc.MaxErrorBody = 8 << 10
	}
	return rc
}

// NewRemoteClient builds the pooled HTTP client RemoteNodes share: one
// bounded connection pool per endpoint, connect timeout independent of
// request deadlines, keep-alives on so a hot shard reuses sockets.
func NewRemoteClient(rc RemoteConfig) *http.Client {
	rc = rc.withDefaults()
	return &http.Client{
		Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   rc.ConnectTimeout,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			MaxConnsPerHost:       rc.MaxConnsPerReplica,
			MaxIdleConnsPerHost:   rc.MaxConnsPerReplica,
			IdleConnTimeout:       90 * time.Second,
			ResponseHeaderTimeout: rc.ResponseHeaderTimeout,
		},
	}
}

// RemoteNode is a Node whose replica lives in another process: AskSQL
// becomes POST /internal/query against an internal/server instance,
// with the query deadline in X-Deadline-Ms, the trace context in
// X-Trace-Context, the shard map epoch in X-Shard-Epoch, and the answer
// as the typed wire form (resilient.WireAnswer). Safe for concurrent
// use.
type RemoteNode struct {
	// addr returns the replica's current base URL ("http://host:port"),
	// or "" while the process is down. A func, not a string: a
	// supervisor-restarted child comes back on a new port, and routing
	// must follow it without rebuilding the cluster.
	addr func() string

	client *http.Client
	epoch  int64
	maxErr int64
}

// NewRemoteNode builds a RemoteNode. client is typically shared across
// the fleet (NewRemoteClient); epoch 0 disables epoch stamping.
func NewRemoteNode(addr func() string, epoch int64, client *http.Client) *RemoteNode {
	if client == nil {
		client = NewRemoteClient(RemoteConfig{})
	}
	return &RemoteNode{addr: addr, client: client, epoch: epoch, maxErr: 8 << 10}
}

// remoteRequest is the POST /internal/query body: the trusted statement.
type remoteRequest struct {
	SQL string `json:"sql"`
}

// AskSQL implements Node: trusted SQL — the coordinator's pruned and
// partial-aggregate pushdown statements — executed on the remote replica.
func (n *RemoteNode) AskSQL(ctx context.Context, sql string) (*resilient.Answer, error) {
	addr := n.addr()
	rctx, sp := childSpan(ctx, "remote")
	defer sp.End()
	sp.SetAttr("addr", addr)
	if addr == "" {
		// The supervisor knows the process is down; fail without a dial
		// so the breaker learns immediately.
		sp.SetAttr("outcome", "down")
		return nil, &RemoteError{Kind: RemoteConn, Addr: addr, Msg: "no address: process down"}
	}

	body, err := json.Marshal(remoteRequest{SQL: sql})
	if err != nil {
		return nil, &RemoteError{Kind: RemoteProtocol, Addr: addr, Msg: err.Error(), Err: err}
	}
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, addr+"/internal/query", bytes.NewReader(body))
	if err != nil {
		return nil, &RemoteError{Kind: RemoteProtocol, Addr: addr, Msg: err.Error(), Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		// The query deadline travels explicitly: the node bounds its own
		// work by it even if the socket stays healthy.
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(ms, 10))
	}
	if n.epoch != 0 {
		req.Header.Set(HeaderShardEpoch, strconv.FormatInt(n.epoch, 10))
	}
	if tc, ok := obs.CurrentTraceContext(rctx); ok {
		req.Header.Set("X-Trace-Context", tc.String())
	}

	resp, err := n.client.Do(req)
	if err != nil {
		// The caller's context dying mid-call must surface as the context
		// error — a hedge loser cancelled because its twin won is not a
		// sick replica.
		if ctxErr := ctx.Err(); ctxErr != nil {
			sp.SetAttr("outcome", "ctx")
			return nil, fmt.Errorf("shard: remote %s: %w", addr, ctxErr)
		}
		kind := RemoteConn
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			kind = RemoteTimeout
		}
		sp.SetAttr("outcome", kind.String())
		return nil, &RemoteError{Kind: kind, Addr: addr, Msg: err.Error(), Err: err}
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		rerr := n.classify(addr, resp)
		sp.SetAttr("outcome", rerr.Kind.String())
		return nil, rerr
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			sp.SetAttr("outcome", "ctx")
			return nil, fmt.Errorf("shard: remote %s: %w", addr, ctxErr)
		}
		sp.SetAttr("outcome", "conn")
		return nil, &RemoteError{Kind: RemoteConn, Addr: addr, Msg: "reading response: " + err.Error(), Err: err}
	}
	ans, wire, err := resilient.DecodeAnswerJSON(data)
	if err != nil {
		// A truncated or corrupt payload must never merge: typed refusal.
		sp.SetAttr("outcome", "protocol")
		return nil, &RemoteError{Kind: RemoteProtocol, Addr: addr, Status: resp.StatusCode, Msg: err.Error(), Err: err}
	}
	if rt, terr := wire.RemoteTrace(); terr == nil && rt != nil {
		// One distributed tree: the node's span tree grafts under this
		// call's "remote" span, beneath the coordinator's attempt span.
		sp.Graft(rt.Root)
	}
	sp.SetAttr("outcome", "ok")
	return ans, nil
}

// classify maps a non-200 response onto the taxonomy.
func (n *RemoteNode) classify(addr string, resp *http.Response) *RemoteError {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, n.maxErr))
	msg := strings.TrimSpace(string(data))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		msg = body.Error
	}
	e := &RemoteError{Addr: addr, Status: resp.StatusCode, Msg: msg}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		e.Kind = RemoteBackpressure
		e.ShedReason = resp.Header.Get("X-Shed-Reason")
		if ra, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err == nil && ra > 0 {
			e.RetryAfter = time.Duration(ra) * time.Second
		}
	case http.StatusConflict:
		e.Kind = RemoteStale
		e.epochHave = n.epoch
		if want, err := strconv.ParseInt(resp.Header.Get(HeaderShardEpoch), 10, 64); err == nil {
			e.epochWant = want
		}
	case http.StatusGatewayTimeout:
		e.Kind = RemoteTimeout
	case http.StatusUnprocessableEntity:
		e.Kind = RemoteSemantic
	case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed:
		e.Kind = RemoteProtocol
	default:
		e.Kind = RemoteExec
	}
	return e
}

// RemoteFleet names the out-of-process replica endpoints a coordinator
// routes to, plus the shard map epoch they were assigned under.
type RemoteFleet struct {
	// Epoch is the shard map version stamped on every internal request
	// (0 disables epoch checking).
	Epoch int64
	// Addrs supplies each replica's current base URL, [shard][replica].
	// Funcs, not strings: a supervisor-restarted child rebinds on a new
	// port and routing follows without rebuilding the cluster. A func
	// returning "" marks the replica down right now.
	Addrs [][]func() string
	// Client, when non-nil, is the shared HTTP client (otherwise one is
	// built from Transport).
	Client *http.Client
	// Transport tunes the pooled client when Client is nil.
	Transport RemoteConfig
}

// NewRemote builds a Cluster whose replicas are remote internal/server
// processes. db is the full source database: cfg.Chain interprets over
// it here, at the coordinator, and it supplies the schema statements are
// bound against, the partitioning map (routing, pruning, scatter
// classification) and the cache fingerprint; the remote processes hold
// the actual partitions and only execute the SQL they are sent. All of
// the in-process cluster's machinery — the interpreter front, replica
// breakers, EWMA load routing, hedging, retries, scatter-gather with
// typed partial-aggregate merge, honest Partial answers — applies
// unchanged; only the last hop changed from a function call to a socket.
func NewRemote(db *sqldata.Database, cfg Config, fleet RemoteFleet) (*Cluster, error) {
	n := len(fleet.Addrs)
	if n == 0 {
		return nil, fmt.Errorf("shard: remote fleet has no shards")
	}
	replicas := len(fleet.Addrs[0])
	if replicas == 0 {
		return nil, fmt.Errorf("shard: remote shard 0 has no replicas")
	}
	for s, reps := range fleet.Addrs {
		if len(reps) != replicas {
			return nil, fmt.Errorf("shard: remote shard %d has %d replicas, want %d", s, len(reps), replicas)
		}
	}
	cfg.Replicas = replicas
	client := fleet.Client
	if client == nil {
		client = NewRemoteClient(fleet.Transport)
	}
	return newCluster(db, n, cfg, func(s, r int, _ []*sqldata.Database) Node {
		return NewRemoteNode(fleet.Addrs[s][r], fleet.Epoch, client)
	})
}

// retryAfterHint extracts a backpressure error's Retry-After, or 0.
func retryAfterHint(err error) time.Duration {
	var re *RemoteError
	if errors.As(err, &re) && re.Kind == RemoteBackpressure {
		return re.RetryAfter
	}
	return 0
}
