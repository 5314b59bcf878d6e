package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/privacy"
	"repro/internal/table"
)

// Every release asks for Smooth Gamma at ereeload's parameters, inside
// the mechanism's validity region (α+1 < e^(ε/5)).
const (
	releaseMech  = "smooth-gamma"
	releaseAlpha = 0.1
	releaseEps   = 0.5
	// releaseMechName is how responses name the mechanism and parameters.
	releaseMechName = "smooth-gamma(alpha=0.1,eps=0.5)"
)

// catalog is ereeload's fixed query mix, most popular first.
func catalog() [][]string {
	return [][]string{
		{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership},
		{lodes.AttrIndustry},
		{lodes.AttrSex},
		{lodes.AttrIndustry, lodes.AttrOwnership},
		{lodes.AttrAge},
		{lodes.AttrOwnership},
		{lodes.AttrRace, lodes.AttrEthnicity},
		{lodes.AttrEducation},
	}
}

// spellings lists every request order of every one- to three-attribute
// set of the schema: 8 + 8·7 + 8·7·6 = 400 for the LODES attributes.
func spellings(schema *table.Schema) [][]string {
	names := schema.Names()
	var out [][]string
	var grow func(prefix []string)
	grow = func(prefix []string) {
		if len(prefix) > 0 {
			out = append(out, append([]string(nil), prefix...))
		}
		if len(prefix) == 3 {
			return
		}
		for _, n := range names {
			used := false
			for _, p := range prefix {
				used = used || p == n
			}
			if !used {
				grow(append(prefix, n))
			}
		}
	}
	grow(nil)
	return out
}

// request is one planned /v1/release call and what its answer must say.
type request struct {
	seq   int64
	attrs []string
	body  []byte
	loss  privacy.Loss // the charge the response must report
	cells int          // the marginal's cell count
}

// newRequest builds the wire body and the expected answer shape. The
// expected charge is derived independently of the server: strong ER-EE
// costs ε, weak ER-EE (any worker attribute) costs d·ε (privacy.MarginalLoss).
func newRequest(schema *table.Schema, seq int64, attrs []string) (request, error) {
	q, err := table.NewQuery(schema, attrs...)
	if err != nil {
		return request{}, err
	}
	def := privacy.StrongEREE
	for _, a := range attrs {
		if lodes.IsWorkerAttr(a) {
			def = privacy.WeakEREE
		}
	}
	loss, err := privacy.MarginalLoss(privacy.Loss{Def: def, Alpha: releaseAlpha, Eps: releaseEps},
		lodes.WorkerAttrDomainSize(schema, attrs))
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(struct {
		Attrs     []string `json:"attrs"`
		Mechanism string   `json:"mechanism"`
		Alpha     float64  `json:"alpha"`
		Eps       float64  `json:"eps"`
		Seq       int64    `json:"seq"`
	}{attrs, releaseMech, releaseAlpha, releaseEps, seq})
	if err != nil {
		return request{}, err
	}
	return request{seq: seq, attrs: attrs, body: body, loss: loss, cells: q.NumCells()}, nil
}

// plan draws n requests with seqs base, base+1, …: request i picks from
// choices with the plan stream's index i, by Zipf(s) popularity over the
// list order (ereeload's draw) or, with s = 0, uniformly.
func plan(schema *table.Schema, s *dist.Stream, choices [][]string, zipf float64, base int64, n int) ([]request, error) {
	cum := make([]float64, len(choices))
	var total float64
	for k := range choices {
		w := 1.0
		if zipf > 0 {
			w = 1 / math.Pow(float64(k+1), zipf)
		}
		total += w
		cum[k] = total
	}
	out := make([]request, n)
	for i := range out {
		k := sort.SearchFloat64s(cum, s.SplitIndex("plan", i).Float64()*total)
		k = min(k, len(choices)-1)
		r, err := newRequest(schema, base+int64(i), choices[k])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// sequential plans one request per choice, in order, with seqs base….
func sequential(schema *table.Schema, choices [][]string, base int64) ([]request, error) {
	out := make([]request, len(choices))
	for i, attrs := range choices {
		r, err := newRequest(schema, base+int64(i), attrs)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// releaseHead is the part of a release response before its counts.
type releaseHead struct {
	Epoch     int      `json:"epoch"`
	Seq       int64    `json:"seq"`
	Attrs     []string `json:"attrs"`
	Mechanism string   `json:"mechanism"`
	Loss      struct {
		Eps   float64 `json:"eps"`
		Delta float64 `json:"delta"`
	} `json:"loss"`
	Cells int `json:"cells"`
}

// checkRelease verifies a 200 /v1/release body against its request: the
// echoed seq, attributes and mechanism, the charged ε, and a counts array
// of exactly the marginal's cell count. It returns the epoch and charge.
func checkRelease(req request, body []byte) (epoch int, eps float64, err error) {
	i := bytes.Index(body, []byte(`,"counts":[`))
	if i < 0 || !bytes.HasSuffix(body, []byte("]}\n")) {
		return 0, 0, fmt.Errorf("seq %d: malformed release body", req.seq)
	}
	var h releaseHead
	if err := json.Unmarshal(append(body[:i:i], '}'), &h); err != nil {
		return 0, 0, fmt.Errorf("seq %d: %v", req.seq, err)
	}
	counts := body[i+len(`,"counts":[`) : len(body)-3]
	n := bytes.Count(counts, []byte{','}) + 1
	switch {
	case h.Seq != req.seq:
		return 0, 0, fmt.Errorf("seq %d answered as seq %d", req.seq, h.Seq)
	case strings.Join(h.Attrs, ",") != strings.Join(req.attrs, ","):
		return 0, 0, fmt.Errorf("seq %d: attrs %v, want %v", req.seq, h.Attrs, req.attrs)
	case h.Mechanism != releaseMechName:
		return 0, 0, fmt.Errorf("seq %d: mechanism %q", req.seq, h.Mechanism)
	case h.Loss.Eps != req.loss.Eps || h.Loss.Delta != req.loss.Delta:
		return 0, 0, fmt.Errorf("seq %d: charged (%g, %g), want (%g, %g)", req.seq, h.Loss.Eps, h.Loss.Delta, req.loss.Eps, req.loss.Delta)
	case h.Cells != req.cells || n != req.cells:
		return 0, 0, fmt.Errorf("seq %d: %d cells with %d counts, want %d", req.seq, h.Cells, n, req.cells)
	}
	return h.Epoch, h.Loss.Eps, nil
}

// client is one keep-alive connection to a server child.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the body, which stays
// valid until the next call.
func (c *client) do(method, url, key string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-API-Key", key)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// answer is one release's outcome.
type answer struct {
	ok    bool
	epoch int
	eps   float64
	body  []byte // kept only for requests the replay gate may re-send
}

// release sends one planned release and checks the answer; keep retains
// a copy of the body.
func (c *client) release(base string, r request, keep bool) answer {
	status, body, err := c.do(http.MethodPost, base+"/v1/release", tenantKey, r.body)
	if err != nil || status != http.StatusOK {
		return answer{}
	}
	epoch, eps, err := checkRelease(r, body)
	if err != nil {
		return answer{}
	}
	a := answer{ok: true, epoch: epoch, eps: eps}
	if keep {
		a.body = append([]byte(nil), body...)
	}
	return a
}

// tenantStats is the part of GET /v1/stats the gates read.
type tenantStats struct {
	SpentEps float64 `json:"spent_eps"`
	Releases int     `json:"releases"`
	Epoch    int     `json:"epoch"`
	Cache    []struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Patches   int64 `json:"patches"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
}

func (c *client) stats(base string) (tenantStats, error) {
	var st tenantStats
	status, body, err := c.do(http.MethodGet, base+"/v1/stats", tenantKey, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /v1/stats: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

// advance absorbs one calibrated quarter through the admin endpoint.
func (c *client) advance(base string) (patches, evictions int64, err error) {
	status, body, err := c.do(http.MethodPost, base+"/v1/admin/advance", adminKey, []byte(`{"quarters":1}`))
	if err != nil {
		return 0, 0, err
	}
	return parseAdvance(status, body)
}

// parseAdvance reads an admin advance response.
func parseAdvance(status int, body []byte) (patches, evictions int64, err error) {
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("advance: status %d: %s", status, body)
	}
	var out struct {
		Quarters []struct {
			CachePatches   int64 `json:"cache_patches"`
			CacheEvictions int64 `json:"cache_evictions"`
		} `json:"quarters"`
	}
	if err := json.Unmarshal(body, &out); err != nil || len(out.Quarters) != 1 {
		return 0, 0, fmt.Errorf("advance: malformed response %q", body)
	}
	return out.Quarters[0].CachePatches, out.Quarters[0].CacheEvictions, nil
}

// openLoop runs n operations on a fixed schedule: operation i is due at
// start + i/rate. senders goroutines take operations in order, wait until
// each is due and run it, so at most senders operations are in flight.
// Latency is measured from the due time, which charges a stall to every
// operation queued behind it; late is how far behind schedule the
// operation was sent.
func openLoop(n int, rate float64, senders int, do func(sender, i int)) (lat, late []time.Duration) {
	lat = make([]time.Duration, n)
	late = make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late[i] = time.Since(due)
				do(s, i)
				lat[i] = time.Since(due)
			}
		}()
	}
	wg.Wait()
	return lat, late
}

// closedLoop runs n operations from workers goroutines, each starting its
// next operation when the previous one returns.
func closedLoop(n, workers int, do func(worker, i int) bool) (failed int) {
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if !do(w, i) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load())
}

// spendGate checks a timed window's accounting from outside: the tenant's
// release count moved by exactly the answered requests, and its ε spend
// by their reported charges (to 1e-9 relative), so no answer went
// uncharged.
func spendGate(o *outcome, label string, before, after tenantStats, answers []answer) {
	var n int
	var eps float64
	for _, a := range answers {
		if a.ok {
			n++
			eps += a.eps
		}
	}
	o.gate(after.Releases-before.Releases == n, "%s: /v1/stats releases moved by %d, %d answered",
		label, after.Releases-before.Releases, n)
	moved := after.SpentEps - before.SpentEps
	o.gate(math.Abs(moved-eps) <= 1e-9*math.Max(math.Abs(eps), 1), "%s: spent_eps moved by %.12g, answers charged %.12g",
		label, moved, eps)
}

// replayGate re-sends answered requests and checks that each answer is
// byte-identical to the first, given at the server's current epoch, and
// that neither spend nor the release count moved.
func replayGate(o *outcome, c *client, base string, reqs []request, answers []answer) error {
	before, err := c.stats(base)
	if err != nil {
		return err
	}
	for i, r := range reqs {
		a := answers[i]
		status, body, err := c.do(http.MethodPost, base+"/v1/release", tenantKey, r.body)
		same := err == nil && status == http.StatusOK && a.ok && a.epoch == before.Epoch && bytes.Equal(body, a.body)
		o.gate(same, "replay of seq %d (first answered at epoch %d, server at %d): status %d, byte-identical %v",
			r.seq, a.epoch, before.Epoch, status, same)
	}
	after, err := c.stats(base)
	if err != nil {
		return err
	}
	o.gate(after.SpentEps == before.SpentEps && after.Releases == before.Releases,
		"replays moved spend %g → %g, releases %d → %d", before.SpentEps, after.SpentEps, before.Releases, after.Releases)
	return nil
}

// cacheTotals sums /v1/stats cache counters over every epoch.
func cacheTotals(st tenantStats) (hits, misses, patches, evictions float64) {
	for _, c := range st.Cache {
		hits += float64(c.Hits)
		misses += float64(c.Misses)
		patches += float64(c.Patches)
		evictions += float64(c.Evictions)
	}
	return
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// median is the middle of xs, the mean of the two middle values for an
// even count (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
