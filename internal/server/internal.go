package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/obs"
	"nlidb/internal/resilient"
	"nlidb/internal/shard"
)

// This file is the node-to-node half of the protocol: POST
// /internal/query serves a coordinator's remote shard legs with typed
// answers (resilient.WireAnswer — the human /query route stringifies
// cells, which a partial-aggregate merge cannot survive), and GET
// /healthz serves supervisors and load balancers. Both routes are part
// of what turns this process into a shard node another process can own.

// internalQueryRequest is the POST /internal/query body: one trusted
// statement. Shard nodes execute; questions are interpreted once, at the
// coordinator, so a body carrying anything else (a "question", say) is a
// peer speaking the protocol wrong and is refused.
type internalQueryRequest struct {
	SQL      string `json:"sql"`
	Priority string `json:"priority,omitempty"`
}

func (s *Server) handleInternalQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Epoch fencing first, before any work: a node configured under a
	// different shard map than the coordinator routed with must refuse —
	// it may no longer own the rows the request assumes. The response
	// always carries this node's epoch so the stale side learns.
	if epoch := s.cfg.ShardEpoch; epoch != 0 {
		w.Header().Set(shard.HeaderShardEpoch, strconv.FormatInt(epoch, 10))
		if h := r.Header.Get(shard.HeaderShardEpoch); h != "" {
			have, err := strconv.ParseInt(h, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "invalid "+shard.HeaderShardEpoch+" header: "+h)
				return
			}
			if have != epoch {
				writeJSON(w, http.StatusConflict, map[string]any{
					"error":       (&shard.StaleEpochError{Have: have, Want: epoch}).Error(),
					"shard_epoch": epoch,
				})
				return
			}
		}
	}
	exec, ok := s.cfg.Backend.(resilient.Executor)
	if !ok {
		writeError(w, http.StatusNotImplemented, "backend has no direct SQL path")
		return
	}
	var req internalQueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "sql is required")
		return
	}
	class := admission.Interactive
	if req.Priority != "" {
		var err error
		if class, err = admission.ParsePriority(req.Priority); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer cancel()
	if h := r.Header.Get("X-Trace-Context"); h != "" {
		tc, terr := obs.ParseTraceContext(h)
		if terr != nil {
			// Reject rather than mislink: a corrupt trace header would
			// attach this node's spans to the wrong distributed trace.
			writeError(w, http.StatusBadRequest, terr.Error())
			return
		}
		ctx = obs.WithRemoteContext(ctx, tc)
	}

	release, ok := s.gate(w, r, ctx, class)
	if !ok {
		return
	}
	defer release()

	start := time.Now()
	ans, err := exec.AskSQL(ctx, req.SQL)
	s.observeSLO(time.Since(start), ans, err)
	if err != nil {
		s.writeAskError(w, ctx, err)
		return
	}
	wire, werr := resilient.EncodeAnswer(ans)
	if werr != nil {
		// An answer that cannot be typed for the wire (NaN aggregate,
		// ragged rows) must fail loudly, not travel approximately.
		writeError(w, http.StatusInternalServerError, werr.Error())
		return
	}
	writeJSON(w, http.StatusOK, wire)
}

// healthzResponse is the GET /healthz body.
type healthzResponse struct {
	Status   string `json:"status"` // "ok", "draining", or "failing"
	Mode     string `json:"mode"`   // "shallow" or "deep"
	InFlight int    `json:"inflight"`
	// DeepSupported is false when ?deep=1 was asked of a server with no
	// HealthSQL probe or no direct-SQL backend (the probe fell back to
	// shallow).
	DeepSupported bool    `json:"deep_supported"`
	ProbeMs       float64 `json:"probe_ms,omitempty"`
	Error         string  `json:"error,omitempty"`
	// ShardIndex/ShardEpoch identify this node's place in the fleet
	// (present only when the node was started with a shard assignment).
	ShardIndex *int  `json:"shard_index,omitempty"`
	ShardEpoch int64 `json:"shard_epoch,omitempty"`
}

// handleHealthz answers liveness probes. Shallow (the default) means the
// process is up and not draining; deep (?deep=1) additionally executes
// Config.HealthSQL through the backend, so a wedged pipeline fails the
// probe while the port still accepts. Draining always answers 503 — the
// supervisor should stop routing here — but the handler itself bypasses
// the drain barrier so the probe keeps answering until exit.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	sb, hasSQL := s.cfg.Backend.(resilient.Executor)
	resp := healthzResponse{
		Status:        "ok",
		Mode:          "shallow",
		InFlight:      s.InFlight(),
		DeepSupported: s.cfg.HealthSQL != "" && hasSQL,
	}
	if s.cfg.ShardEpoch != 0 {
		idx := s.cfg.ShardIndex
		resp.ShardIndex = &idx
		resp.ShardEpoch = s.cfg.ShardEpoch
		w.Header().Set(shard.HeaderShardEpoch, strconv.FormatInt(s.cfg.ShardEpoch, 10))
	}
	if s.Draining() {
		resp.Status = "draining"
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.Admission.RetryAfterHint()))
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	if r.URL.Query().Get("deep") != "" && resp.DeepSupported {
		resp.Mode = "deep"
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		start := time.Now()
		_, err := sb.AskSQL(ctx, s.cfg.HealthSQL)
		resp.ProbeMs = float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			resp.Status = "failing"
			resp.Error = err.Error()
			writeJSON(w, http.StatusServiceUnavailable, resp)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
