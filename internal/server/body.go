package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"nlidb/internal/resilient"
	"nlidb/internal/session"
	"nlidb/internal/sqldata"
)

// This file writes the response bodies. The answer routes (/query,
// /batch, /session/ask) render straight from the executor's Result into
// one buffer, byte for byte what encoding/json would write for the
// documented body; every other body goes through encoding/json. Either
// way the body is complete before the header goes out, so a value JSON
// cannot carry (a NaN score) becomes a 500, never a 200 with no body.

// bodyBufs recycles body buffers between responses. A buffer that grew
// past maxPooledBody is left to the collector, so one huge answer does
// not pin its buffer.
var bodyBufs sync.Pool

const maxPooledBody = 1 << 20

// writeBody renders a body with render into a pooled buffer and writes it
// in one call, with Content-Length. A render error answers a JSON 500
// instead; nothing has been written by then.
func writeBody(w http.ResponseWriter, code int, render func([]byte) ([]byte, error)) {
	bp, _ := bodyBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	b, err := render((*bp)[:0])
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: "+err.Error())
	} else {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(b)))
		w.WriteHeader(code)
		w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyBufs.Put(bp)
	}
}

// writeJSON writes v as encoding/json does, newline-terminated.
func writeJSON(w http.ResponseWriter, code int, v any) {
	writeBody(w, code, func(b []byte) ([]byte, error) {
		buf := bytes.NewBuffer(b)
		err := json.NewEncoder(buf).Encode(v)
		return buf.Bytes(), err
	})
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeAnswer writes the POST /query success body.
func writeAnswer(w http.ResponseWriter, ans *resilient.Answer) {
	writeBody(w, http.StatusOK, func(b []byte) ([]byte, error) {
		b, err := appendAnswer(b, ans)
		return append(b, '\n'), err
	})
}

// appendAnswer appends the /query body object for ans, which is also a
// /batch item's "answer":
//
//	engine, sql, columns (null when nil), rows (every cell a string, as
//	sqldata.Value.String renders it), score;
//	cached, simplified, partial — each only when true; partial marks an
//	answer assembled without every shard, and missing_shards (only when
//	non-empty) lists the shards that did not contribute;
//	elapsed_ms; trace_id (only when set) — GET /trace?id= renders the
//	trace when it was retained.
func appendAnswer(b []byte, ans *resilient.Answer) ([]byte, error) {
	if err := finite(ans.Score); err != nil {
		return b, err
	}
	var res sqldata.Result
	if ans.Result != nil {
		res = *ans.Result
	}
	b = append(b, `{"engine":`...)
	b = appendString(b, ans.Engine)
	b = append(b, `,"sql":`...)
	b = appendString(b, ans.SQL.String())
	b = append(b, `,"columns":`...)
	b = appendStrings(b, res.Columns)
	b = append(b, `,"rows":`...)
	b = appendRows(b, res.Rows)
	b = append(b, `,"score":`...)
	b = appendFloat(b, ans.Score)
	b = appendFlag(b, `,"cached":true`, ans.Cached)
	b = appendFlag(b, `,"simplified":true`, ans.Simplified)
	b = appendFlag(b, `,"partial":true`, ans.Partial)
	if len(ans.MissingShards) > 0 {
		b = append(b, `,"missing_shards":[`...)
		for i, s := range ans.MissingShards {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, millis(ans.Elapsed))
	if ans.Trace != nil && ans.Trace.ID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendString(b, string(ans.Trace.ID))
	}
	return append(b, '}'), nil
}

// writeBatch writes the POST /batch success body: {"results": [...]},
// one item per result in order, each index, question, then answer on
// success or error on failure; shed (only when true) marks a question
// the pipeline never started, safe to retry as-is.
func writeBatch(w http.ResponseWriter, results []resilient.BatchResult) {
	writeBody(w, http.StatusOK, func(b []byte) ([]byte, error) {
		b = append(b, `{"results":[`...)
		for i, res := range results {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"index":`...)
			b = strconv.AppendInt(b, int64(res.Index), 10)
			b = append(b, `,"question":`...)
			b = appendString(b, res.Question)
			if res.Err != nil {
				if msg := res.Err.Error(); msg != "" {
					b = append(b, `,"error":`...)
					b = appendString(b, msg)
				}
				b = appendFlag(b, `,"shed":true`, errors.Is(res.Err, resilient.ErrShed))
			} else {
				var err error
				b = append(b, `,"answer":`...)
				if b, err = appendAnswer(b, res.Answer); err != nil {
					return b, err
				}
			}
			b = append(b, '}')
		}
		return append(b, "]}\n"...), nil
	})
}

// writeTurn writes the POST /session/ask success body: the resolved turn
// — session_id, turn, intent, context_resolved (the turn resolved against
// tracked dialogue context: a follow-up) — then, each only when present,
// cached, message and the query-answer surface (engine, sql, columns,
// rows), which a conversational turn such as a greeting lacks; then
// elapsed_ms and trace_id.
func writeTurn(w http.ResponseWriter, id string, turn *session.Turn) {
	writeBody(w, http.StatusOK, func(b []byte) ([]byte, error) {
		return append(appendTurn(b, id, turn), '\n'), nil
	})
}

func appendTurn(b []byte, id string, turn *session.Turn) []byte {
	resp := turn.Resp
	b = append(b, `{"session_id":`...)
	b = appendString(b, id)
	b = append(b, `,"turn":`...)
	b = strconv.AppendInt(b, int64(turn.N), 10)
	b = append(b, `,"intent":`...)
	b = appendString(b, turn.Intent.String())
	b = append(b, `,"context_resolved":`...)
	b = strconv.AppendBool(b, turn.ContextFP != 0)
	b = appendFlag(b, `,"cached":true`, turn.Cached)
	if resp.Message != "" {
		b = append(b, `,"message":`...)
		b = appendString(b, resp.Message)
	}
	if a := resp.Answer; a != nil && a.Engine != "" {
		b = append(b, `,"engine":`...)
		b = appendString(b, a.Engine)
	}
	if resp.SQL != nil {
		if sql := resp.SQL.String(); sql != "" {
			b = append(b, `,"sql":`...)
			b = appendString(b, sql)
		}
	}
	if res := resp.Result; res != nil {
		if len(res.Columns) > 0 {
			b = append(b, `,"columns":`...)
			b = appendStrings(b, res.Columns)
		}
		if len(res.Rows) > 0 {
			b = append(b, `,"rows":`...)
			b = appendRows(b, res.Rows)
		}
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, millis(turn.Elapsed))
	if turn.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendString(b, string(turn.TraceID))
	}
	return append(b, '}')
}

// appendRows appends rows as a JSON array of arrays of strings; nil rows
// are the empty array.
func appendRows(b []byte, rows []sqldata.Row) []byte {
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			if s, ok := v.TextOK(); ok {
				b = appendString(b, s)
			} else {
				// Every other rendering is ASCII that JSON needs no escape
				// for.
				b = append(b, '"')
				b = v.AppendTo(b)
				b = append(b, '"')
			}
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendStrings appends ss as a JSON array of strings, or null when nil.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

func appendFlag(b []byte, field string, on bool) []byte {
	if on {
		b = append(b, field...)
	}
	return b
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite refuses the floats JSON has no number for, with encoding/json's
// message.
func finite(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return nil
}

// appendFloat appends a finite f as encoding/json writes a float64: like
// %g, but exponent form only below 1e-6 or from 1e21 on, and the
// exponent without padding.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hex = "0123456789abcdef"

// appendString appends s as encoding/json writes a string with HTML
// escaping on: <, > and & as \u003c, \u003e, \u0026; control bytes as
// \b \f \n \r \t or \u00XX; U+2028 and U+2029 escaped; each byte of
// invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
