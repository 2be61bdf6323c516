package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/session"
)

// Session API protocol:
//
//	POST   /session              → 200 {"session_id": "...", "ttl_ms": N}
//	POST   /session/ask          {"utterance": "..."} + X-Session-ID header
//	DELETE /session              + X-Session-ID header → 204
//
// The session ID travels in the X-Session-ID header (create echoes it
// there too; /session/ask also accepts a session_id body field for
// clients that cannot set headers). An unknown ID is a 404; an ID that
// existed but expired, was evicted, or was ended is a 410 Gone — the
// client must open a new session and rebuild context. Turns pass the
// same rate-limit + admission gate as stateless queries, plus a
// per-session token bucket so one runaway conversation cannot starve
// the rest of a client's traffic.

// sessionCreateResponse is the POST /session success body.
type sessionCreateResponse struct {
	SessionID string `json:"session_id"`
	TTLMs     int64  `json:"ttl_ms"`
}

// sessionAskRequest is the POST /session/ask body.
type sessionAskRequest struct {
	Utterance string `json:"utterance"`
	SessionID string `json:"session_id,omitempty"`
	Priority  string `json:"priority,omitempty"`
}

// handleSession serves POST /session (create) and DELETE /session (end).
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Sessions
	if st == nil {
		writeError(w, http.StatusNotImplemented, "conversational serving not enabled")
		return
	}
	switch r.Method {
	case http.MethodPost:
		id := st.Create()
		w.Header().Set("X-Session-ID", id)
		writeJSON(w, http.StatusOK, sessionCreateResponse{
			SessionID: id,
			TTLMs:     int64(st.TTL() / time.Millisecond),
		})
	case http.MethodDelete:
		id := r.Header.Get("X-Session-ID")
		if id == "" {
			writeError(w, http.StatusBadRequest, "X-Session-ID header is required")
			return
		}
		if err := st.End(id); err != nil {
			s.writeSessionError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, http.StatusMethodNotAllowed, "POST or DELETE only")
	}
}

// handleSessionAsk serves one conversational turn.
func (s *Server) handleSessionAsk(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Sessions
	if st == nil {
		writeError(w, http.StatusNotImplemented, "conversational serving not enabled")
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req sessionAskRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	id := r.Header.Get("X-Session-ID")
	if id == "" {
		id = req.SessionID
	}
	if id == "" {
		writeError(w, http.StatusBadRequest, "X-Session-ID header (or session_id field) is required")
		return
	}
	if req.Utterance == "" {
		writeError(w, http.StatusBadRequest, "utterance is required")
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

	// The per-session bucket layers on the per-client one inside gate:
	// X-Client bounds a caller's total traffic, this bounds one
	// conversation's share of it.
	if rl := s.cfg.SessionRateLimit; rl != nil {
		if allowed, retry := rl.Allow(id); !allowed {
			s.cfg.Metrics.Counter(admission.MetricShed, "reason", "session_rate_limit").Inc()
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			w.Header().Set("X-Shed-Reason", "session_rate_limit")
			writeError(w, http.StatusTooManyRequests, "session rate limit exceeded")
			return
		}
	}

	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer cancel()

	release, ok := s.gate(w, r, ctx, class)
	if !ok {
		return
	}
	defer release()

	turn, err := st.Ask(ctx, id, req.Utterance)
	if turn != nil {
		s.observeSLO(turn.Elapsed, turn.Resp.Answer, err)
	}
	if err != nil {
		if errors.Is(err, session.ErrNotFound) || errors.Is(err, session.ErrExpired) {
			s.writeSessionError(w, err)
			return
		}
		// The turn reached the pipeline and failed there; answer like
		// /query would, so clients share error handling across modes.
		s.writeAskError(w, ctx, err)
		return
	}

	w.Header().Set("X-Session-ID", id)
	writeTurn(w, id, turn)
}

// writeSessionError maps store lookups onto the documented statuses: 404
// for an ID never issued, 410 Gone for one that expired, was evicted, or
// was ended.
func (s *Server) writeSessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, session.ErrNotFound):
		writeError(w, http.StatusNotFound, "unknown session")
	case errors.Is(err, session.ErrExpired):
		writeError(w, http.StatusGone, "session expired or ended; create a new one")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}
