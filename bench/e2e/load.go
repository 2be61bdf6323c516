package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock lets the tests drive the load loop with a fake time source.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// reply is what the load generator keeps of one HTTP response.
type reply struct {
	// Status is the HTTP status, 0 on a transport error or timeout.
	Status int
	// ValidJSON is false when the body did not parse as the documented
	// JSON object.
	ValidJSON bool
	Cached    bool
	Engine    string
	SQL       string
	// Rows is kept only when the caller asked for it; RowsHash always is.
	Rows     [][]string
	RowsHash uint64
}

// ok: the question was answered with rows.
func (r reply) ok() bool { return r.Status == http.StatusOK && r.ValidJSON }

// refused: the system said, in the documented form, that no interpreter
// could answer or that the statement cannot be distributed. The request
// worked; the answer is wrong as far as execution accuracy goes.
func (r reply) refused() bool { return r.Status == http.StatusUnprocessableEntity && r.ValidJSON }

// sample is one request of a load phase.
type sample struct {
	// Index is the request's position in the question stream.
	Index int
	// Due is when the request was scheduled; in a closed loop that is when
	// it was sent.
	Due, Sent, Done time.Time
	Reply           reply
}

// latency is measured from the due time, so a stall is charged to every
// request it delays, not only to the one that hit it.
func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// lateness is how long after its due time the generator sent the request.
func (s sample) lateness() time.Duration { return s.Sent.Sub(s.Due) }

// dueTime is when request n of an open loop at rate requests per second
// is due.
func dueTime(start time.Time, n int, rate float64) time.Time {
	return start.Add(time.Duration(float64(n) / rate * float64(time.Second)))
}

// loadPhase describes one phase of load. A phase ends after duration, or
// after count requests when count is set.
type loadPhase struct {
	workers int
	// rate is the open-loop request rate per second; 0 is a closed loop.
	rate     float64
	duration time.Duration
	count    int
	// first is the stream index of the phase's first request.
	first int
}

// runLoad issues requests p.first, p.first+1, … from p.workers goroutines
// and returns one sample per request, in index order.
//
// In a closed loop each worker sends its next request as soon as its
// previous one completed. In an open loop request n is due at
// start + n/rate whatever happened to earlier requests; the worker that
// claims it sleeps until then, and when every worker is busy the request
// goes out late and its latency still counts from the due time.
func runLoad(clk clock, p loadPhase, send func(index int) reply) []sample {
	start := clk.Now()
	end := start.Add(p.duration)
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				n := int(next.Add(1) - 1)
				if p.count > 0 && n >= p.count {
					break
				}
				var s sample
				if p.rate > 0 {
					s.Due = dueTime(start, n, p.rate)
					if p.count == 0 && !s.Due.Before(end) {
						break
					}
					if wait := s.Due.Sub(clk.Now()); wait > 0 {
						clk.Sleep(wait)
					}
					s.Sent = clk.Now()
				} else {
					s.Sent = clk.Now()
					s.Due = s.Sent
					if p.count == 0 && !s.Sent.Before(end) {
						break
					}
				}
				s.Index = p.first + n
				s.Reply = send(s.Index)
				s.Done = clk.Now()
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// client posts questions to one serving child over a fixed number of
// keep-alive connections.
type client struct {
	http *http.Client
	url  string
}

func newClient(addr string, conns int) *client {
	return &client{
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
			},
		},
		url: "http://" + addr + "/query",
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// queryBody is the part of the POST /query response the benchmark reads.
type queryBody struct {
	Engine string     `json:"engine"`
	SQL    string     `json:"sql"`
	Rows   [][]string `json:"rows"`
	Cached bool       `json:"cached"`
	Error  string     `json:"error"`
}

// ask posts one question and parses the answer.
func (c *client) ask(question string, keepRows bool) reply {
	body, err := json.Marshal(map[string]string{"question": question})
	if err != nil {
		return reply{}
	}
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}
	}
	r := reply{Status: resp.StatusCode}
	var qb queryBody
	if err := json.Unmarshal(raw, &qb); err != nil {
		return r
	}
	// A 200 carries an answer, anything else an error message.
	r.ValidJSON = (r.Status == http.StatusOK) == (qb.Error == "")
	r.Cached, r.Engine, r.SQL = qb.Cached, qb.Engine, qb.SQL
	r.RowsHash = hashRows(qb.Rows)
	if keepRows {
		r.Rows = qb.Rows
	}
	return r
}

// hashRows is an order-sensitive hash of a result's cells.
func hashRows(rows [][]string) uint64 {
	h := fnv.New64a()
	for _, row := range rows {
		for _, cell := range row {
			h.Write([]byte(cell))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}
