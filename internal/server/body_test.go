package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nlidb/internal/dialogue"
	"nlidb/internal/obs"
	"nlidb/internal/resilient"
	"nlidb/internal/session"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// The oracle: the response structs the answer routes once handed to
// encoding/json. The body writers must produce their bytes exactly.

type queryResponse struct {
	Engine        string     `json:"engine"`
	SQL           string     `json:"sql"`
	Columns       []string   `json:"columns"`
	Rows          [][]string `json:"rows"`
	Score         float64    `json:"score"`
	Cached        bool       `json:"cached,omitempty"`
	Simplified    bool       `json:"simplified,omitempty"`
	Partial       bool       `json:"partial,omitempty"`
	MissingShards []int      `json:"missing_shards,omitempty"`
	ElapsedMs     float64    `json:"elapsed_ms"`
	TraceID       string     `json:"trace_id,omitempty"`
}

func toQueryResponse(ans *resilient.Answer) queryResponse {
	resp := queryResponse{
		Engine:        ans.Engine,
		SQL:           ans.SQL.String(),
		Columns:       ans.Result.Columns,
		Rows:          make([][]string, len(ans.Result.Rows)),
		Score:         ans.Score,
		Cached:        ans.Cached,
		Simplified:    ans.Simplified,
		Partial:       ans.Partial,
		MissingShards: ans.MissingShards,
		ElapsedMs:     float64(ans.Elapsed) / float64(time.Millisecond),
	}
	if ans.Trace != nil {
		resp.TraceID = string(ans.Trace.ID)
	}
	for i, row := range ans.Result.Rows {
		resp.Rows[i] = cellStrings(row)
	}
	return resp
}

func cellStrings(row sqldata.Row) []string {
	cells := make([]string, len(row))
	for j, v := range row {
		cells[j] = v.String()
	}
	return cells
}

type batchItem struct {
	Index    int            `json:"index"`
	Question string         `json:"question"`
	Answer   *queryResponse `json:"answer,omitempty"`
	Error    string         `json:"error,omitempty"`
	Shed     bool           `json:"shed,omitempty"`
}

func toBatchBody(results []resilient.BatchResult) any {
	items := make([]batchItem, len(results))
	for i, res := range results {
		item := batchItem{Index: res.Index, Question: res.Question}
		if res.Err != nil {
			item.Error = res.Err.Error()
			item.Shed = errors.Is(res.Err, resilient.ErrShed)
		} else {
			resp := toQueryResponse(res.Answer)
			item.Answer = &resp
		}
		items[i] = item
	}
	return map[string]any{"results": items}
}

type sessionAskResponse struct {
	SessionID       string     `json:"session_id"`
	Turn            int        `json:"turn"`
	Intent          string     `json:"intent"`
	ContextResolved bool       `json:"context_resolved"`
	Cached          bool       `json:"cached,omitempty"`
	Message         string     `json:"message,omitempty"`
	Engine          string     `json:"engine,omitempty"`
	SQL             string     `json:"sql,omitempty"`
	Columns         []string   `json:"columns,omitempty"`
	Rows            [][]string `json:"rows,omitempty"`
	ElapsedMs       float64    `json:"elapsed_ms"`
	TraceID         string     `json:"trace_id,omitempty"`
}

func toSessionAskResponse(id string, turn *session.Turn) sessionAskResponse {
	resp := sessionAskResponse{
		SessionID:       id,
		Turn:            turn.N,
		Intent:          turn.Intent.String(),
		ContextResolved: turn.ContextFP != 0,
		Cached:          turn.Cached,
		Message:         turn.Resp.Message,
		ElapsedMs:       float64(turn.Elapsed) / float64(time.Millisecond),
		TraceID:         string(turn.TraceID),
	}
	if turn.Resp.SQL != nil {
		resp.SQL = turn.Resp.SQL.String()
	}
	if a := turn.Resp.Answer; a != nil {
		resp.Engine = a.Engine
	}
	if res := turn.Resp.Result; res != nil {
		resp.Columns = res.Columns
		resp.Rows = make([][]string, len(res.Rows))
		for i, row := range res.Rows {
			resp.Rows[i] = cellStrings(row)
		}
	}
	return resp
}

// oracleBody is what json.Encoder writes for v.
func oracleBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// Cells are encoded for the fuzzer as a tag byte (mod 6) and a payload:
// NULL none; INT and FLOAT 8 bytes little-endian (FLOAT as IEEE bits);
// TEXT a length byte (mod 32) and that many raw bytes; BOOL one byte;
// DATE 4 bytes of signed days since the epoch.
const (
	cellNull = iota
	cellInt
	cellFloat
	cellText
	cellBool
	cellDate
	cellKinds
)

func decodeCells(data []byte) []sqldata.Value {
	var vals []sqldata.Value
	for len(data) > 0 {
		tag := data[0] % cellKinds
		data = data[1:]
		need := [cellKinds]int{cellInt: 8, cellFloat: 8, cellText: 1, cellBool: 1, cellDate: 4}[tag]
		if len(data) < need {
			break
		}
		switch tag {
		case cellNull:
			vals = append(vals, sqldata.NullValue())
		case cellInt:
			vals = append(vals, sqldata.NewInt(int64(binary.LittleEndian.Uint64(data))))
		case cellFloat:
			vals = append(vals, sqldata.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(data))))
		case cellText:
			n := min(int(data[0]%32), len(data)-1)
			vals = append(vals, sqldata.NewText(string(data[1:1+n])))
			need += n
		case cellBool:
			vals = append(vals, sqldata.NewBool(data[0]&1 == 1))
		case cellDate:
			vals = append(vals, sqldata.NewDateDays(int64(int32(binary.LittleEndian.Uint32(data)))))
		}
		data = data[need:]
	}
	return vals
}

func encodeCells(vals ...sqldata.Value) []byte {
	var b []byte
	for _, v := range vals {
		switch {
		case v.Null:
			b = append(b, cellNull)
		case v.T == sqldata.TypeInt:
			b = binary.LittleEndian.AppendUint64(append(b, cellInt), uint64(v.Int()))
		case v.T == sqldata.TypeFloat:
			b = binary.LittleEndian.AppendUint64(append(b, cellFloat), math.Float64bits(v.Float()))
		case v.T == sqldata.TypeText:
			b = append(append(b, cellText, byte(len(v.Text()))), v.Text()...)
		case v.T == sqldata.TypeBool:
			b = append(b, cellBool, 0)
			if v.Bool() {
				b[len(b)-1] = 1
			}
		case v.T == sqldata.TypeDate:
			b = binary.LittleEndian.AppendUint32(append(b, cellDate), uint32(int32(v.DateDays())))
		}
	}
	return b
}

// fuzzAnswer builds an answer from the fuzzer's inputs: rows of width
// 1 + flags%3 cut from the cells (the last one may be short), columns
// nil, empty, or odd names by flags>>2, and the envelope flags above.
func fuzzAnswer(cells []byte, text string, score float64, elapsed int64, flags uint8) *resilient.Answer {
	vals := decodeCells(cells)
	width := 1 + int(flags%3)
	res := &sqldata.Result{}
	for len(vals) > 0 {
		n := min(width, len(vals))
		res.Rows = append(res.Rows, vals[:n:n])
		vals = vals[n:]
	}
	switch flags >> 2 % 3 {
	case 1:
		res.Columns = []string{}
	case 2:
		res.Columns = []string{text, "a<b>&c", "\u2028", ""}
	}
	ans := &resilient.Answer{
		Engine:     text,
		SQL:        sqlparse.MustParse("SELECT name FROM customer WHERE city = 'a<b&c>'"),
		Result:     res,
		Score:      score,
		Elapsed:    time.Duration(elapsed),
		Cached:     flags&0x10 != 0,
		Simplified: flags&0x20 != 0,
		Partial:    flags&0x40 != 0,
	}
	if ans.Partial {
		ans.MissingShards = []int{0, int(flags)}
	}
	if flags&0x80 != 0 {
		ans.Trace = &obs.QueryTrace{ID: obs.TraceID(text)}
	}
	return ans
}

// FuzzAnswerJSON requires the /query, /batch and /session/ask bodies to
// equal encoding/json's encoding of the response structs, byte for byte,
// over random typed cells and envelopes; a float encoding/json refuses
// must be refused too.
func FuzzAnswerJSON(f *testing.F) {
	f.Add(encodeCells(
		sqldata.NullValue(), sqldata.NewInt(math.MinInt64), sqldata.NewInt(math.MaxInt64),
		sqldata.NewFloat(math.Copysign(0, -1)), sqldata.NewFloat(3), sqldata.NewFloat(1e21),
		sqldata.NewFloat(1e-7), sqldata.NewFloat(5e-324), sqldata.NewFloat(math.MaxFloat64),
		sqldata.NewFloat(math.NaN()), sqldata.NewFloat(math.Inf(-1)),
		sqldata.NewDate(2024, 2, 29), sqldata.NewDateDays(-800_000), sqldata.NewBool(true), sqldata.NewBool(false),
	), "canned", 0.75, int64(1500*time.Microsecond), uint8(0xff))
	f.Add(encodeCells(
		sqldata.NewText("<a href=\"x\">&amp;</a>"), sqldata.NewText("line\u2028para\u2029"),
		sqldata.NewText("bad\xff\xfeutf8\xc3"), sqldata.NewText("\x00\x01\b\f\n\r\t\x1f\x7f\\"),
		sqldata.NewText("Z\u00fcrich \u6771\u4eac \U0001f642"), sqldata.NewText(""),
	), "te\"xt<\u2028\xff", 1e21, int64(-1), uint8(0x0a))
	f.Add([]byte{}, "", 1e-7, int64(0), uint8(0))
	f.Add(encodeCells(sqldata.NewInt(0)), "x", math.NaN(), int64(1), uint8(0x41))
	f.Add(encodeCells(sqldata.NewText("x")), "y", math.Inf(1), int64(5), uint8(0x05))
	f.Add(encodeCells(sqldata.NewFloat(-0.000001)), "y", 5e-324, int64(math.MaxInt64), uint8(0x31))

	f.Fuzz(func(t *testing.T, cells []byte, text string, score float64, elapsed int64, flags uint8) {
		ans := fuzzAnswer(cells, text, score, elapsed, flags)

		want, wantErr := oracleBody(toQueryResponse(ans))
		got, err := appendAnswer(nil, ans)
		got = append(got, '\n')
		checkBody(t, "/query", got, err, want, wantErr)

		results := []resilient.BatchResult{
			{Index: 0, Question: text, Answer: ans},
			{Index: 1, Question: "q<1>", Err: errors.New(text)},
			{Index: 2, Question: "", Err: fmt.Errorf("not started: %w", resilient.ErrShed)},
		}
		want, wantErr = oracleBody(toBatchBody(results))
		rec := httptest.NewRecorder()
		writeBatch(rec, results)
		if wantErr == nil {
			checkBody(t, "/batch", rec.Body.Bytes(), nil, want, nil)
		} else if rec.Code != http.StatusInternalServerError {
			t.Errorf("/batch: encoding/json refused the body (%v), writer answered %d", wantErr, rec.Code)
		}

		turn := &session.Turn{
			N: int(elapsed % 1000), Intent: dialogue.Intent(flags % 8), ContextFP: uint64(flags & 0x01),
			Cached: flags&0x10 != 0, Elapsed: time.Duration(elapsed), TraceID: obs.TraceID(text),
			Resp: &dialogue.Response{Message: text},
		}
		if flags&0x02 != 0 {
			turn.Resp.SQL, turn.Resp.Result, turn.Resp.Answer = ans.SQL, ans.Result, ans
		}
		id := text + "-id"
		want, wantErr = oracleBody(toSessionAskResponse(id, turn))
		checkBody(t, "/session/ask", append(appendTurn(nil, id, turn), '\n'), nil, want, wantErr)
	})
}

func checkBody(t *testing.T, route string, got []byte, err error, want []byte, wantErr error) {
	t.Helper()
	switch {
	case wantErr != nil && err == nil:
		t.Errorf("%s: encoding/json refused the body (%v), the writer did not", route, wantErr)
	case wantErr == nil && err != nil:
		t.Errorf("%s: the writer refused the body: %v", route, err)
	case wantErr == nil && !bytes.Equal(got, want):
		t.Errorf("%s body differs from encoding/json:\n got %q\nwant %q", route, got, want)
	}
}

// cannedBackend answers every question with one prepared answer.
type cannedBackend struct{ ans *resilient.Answer }

func (b *cannedBackend) Ask(context.Context, string) (*resilient.Answer, error) { return b.ans, nil }

func (b *cannedBackend) ServeBatch(_ context.Context, qs []string) []resilient.BatchResult {
	out := make([]resilient.BatchResult, len(qs))
	for i, q := range qs {
		out[i] = resilient.BatchResult{Index: i, Question: q, Answer: b.ans}
	}
	return out
}

// cannedAnswer is an n-row answer with a cell of every type.
func cannedAnswer(n int) *resilient.Answer {
	res := &sqldata.Result{Columns: []string{"id", "name", "credit", "joined", "vip", "note"}}
	for i := 0; i < n; i++ {
		res.Rows = append(res.Rows, sqldata.Row{
			sqldata.NewInt(int64(i)), sqldata.NewText(fmt.Sprintf("customer <%05d> & co", i)),
			sqldata.NewFloat(float64(i) / 3), sqldata.NewDateDays(int64(i)), sqldata.NewBool(i%2 == 0),
			sqldata.NullValue(),
		})
	}
	return &resilient.Answer{Engine: "canned", SQL: sqlparse.MustParse("SELECT id, name FROM customer"), Result: res, Score: 0.5}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// discardWriter is a ResponseWriter that keeps only the status and the
// body length.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestQueryBodyAllocsIndependentOfRows: the /query body is written
// straight from the Result into one reused buffer, so a 1,000-row answer
// costs no more allocations than a 10-row one.
func TestQueryBodyAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	allocs := func(rows int) float64 {
		s := New(Config{Backend: &cannedBackend{ans: cannedAnswer(rows)}})
		w := &discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(50, func() {
			req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"question": "customers"}`))
			s.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
		})
	}
	if small, large := allocs(10), allocs(1000); large > small {
		t.Errorf("a 1,000-row answer costs %.0f allocations, a 10-row one %.0f", large, small)
	}
}

// TestNonFiniteScoreIsA500: a score JSON has no number for must not turn
// into a 200 with an empty body.
func TestNonFiniteScoreIsA500(t *testing.T) {
	for _, score := range []float64{math.NaN(), math.Inf(1)} {
		ans := cannedAnswer(2)
		ans.Score = score
		s := New(Config{Backend: &cannedBackend{ans: ans}})
		for _, c := range []struct{ path, body string }{
			{"/query", `{"question": "customers"}`},
			{"/batch", `{"questions": ["customers"]}`},
		} {
			rec := post(s, c.path, c.body, nil)
			if rec.Code != http.StatusInternalServerError {
				t.Errorf("%s, score %v: status %d, body %q; want 500", c.path, score, rec.Code, rec.Body)
				continue
			}
			if e := decode[map[string]string](t, rec)["error"]; !strings.Contains(e, "unsupported value") {
				t.Errorf("%s, score %v: error %q", c.path, score, e)
			}
		}
	}
}

// TestAnswerBodyFraming: an answer body is written once, with its
// Content-Length, and is what encoding/json writes.
func TestAnswerBodyFraming(t *testing.T) {
	ans := cannedAnswer(500)
	s := New(Config{Backend: &cannedBackend{ans: ans}})
	rec := post(s, "/query", `{"question": "customers"}`, nil)
	want, err := oracleBody(toQueryResponse(ans))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("status %d, body differs from encoding/json", rec.Code)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
		t.Errorf("Content-Length %q, body %d bytes", cl, len(want))
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
}
