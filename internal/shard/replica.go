package shard

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"

	"nlidb/internal/resilient"
)

// replica is one Node plus the health state routing decisions read: a
// circuit breaker over consecutive infrastructure failures, an EWMA of
// call latency, and the current in-flight count.
type replica struct {
	shard int
	idx   int
	node  Node
	br    *resilient.Breaker

	inflight   atomic.Int64
	ewmaMicros atomic.Int64 // 0 = no sample yet
	consecErrs atomic.Int64
}

// healthy reports whether the replica may take a request right now. It
// delegates to the breaker's Allow, so asking is what admits the single
// half-open probe after a cooldown — call it only when the caller will
// actually send the request on a true return.
func (r *replica) healthy() bool { return r.br.Allow() }

// load scores the replica for load-aware picking: queued work dominates,
// smoothed latency breaks ties. Lower is better.
func (r *replica) load() float64 {
	return float64(r.inflight.Load())*1e6 + float64(r.ewmaMicros.Load())
}

// ewmaAlpha is the smoothing factor for the latency EWMA: each new sample
// contributes 30%, so a replica that turns slow is noticed within a few
// calls without a single outlier dominating.
const ewmaAlpha = 0.3

// observe folds one finished call into the replica's health state.
func (r *replica) observe(err error, elapsed time.Duration) {
	us := elapsed.Microseconds()
	if us < 1 {
		us = 1
	}
	for {
		old := r.ewmaMicros.Load()
		var next int64
		if old == 0 {
			next = us
		} else {
			next = int64(math.Round(float64(old)*(1-ewmaAlpha) + float64(us)*ewmaAlpha))
		}
		if r.ewmaMicros.CompareAndSwap(old, next) {
			break
		}
	}
	if err == nil {
		r.consecErrs.Store(0)
		r.br.Success()
		return
	}
	if !replicaCountable(err) {
		return
	}
	r.consecErrs.Add(1)
	r.br.Failure()
}

// replicaCountable reports whether a call failure indicates replica
// ill-health. Cancellation is not: a hedge loser canceled because its
// twin won, or a caller that gave up, says nothing about the replica.
// Neither are a statement that fails on its own terms
// (resilient.ErrStatement), a remote node's shedding, or its protocol
// refusals; a dead node, a broken executor, or a deadline blown inside
// the call all count.
func replicaCountable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, resilient.ErrStatement) {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		switch re.Kind {
		case RemoteBackpressure, RemoteProtocol, RemoteSemantic:
			// Shedding is load, not ill-health: a breaker opened by 503s
			// would amplify an overload into an outage. Protocol and
			// semantic refusals are deterministic properties of the
			// request; they say nothing about the replica either.
			return false
		}
		// Conn, timeout, stale-epoch, and execution failures all count:
		// the process is unreachable, too slow, misconfigured, or broken.
		return true
	}
	return true
}
