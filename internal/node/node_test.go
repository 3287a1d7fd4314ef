package node

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/pkg/api"
)

type fakeMetrics struct {
	reg      *obs.Registry
	routes   []string
	failed   int
	inflight int64
	peak     int64
}

func (m *fakeMetrics) Registry() *obs.Registry { return m.reg }

func (m *fakeMetrics) ObserveRequestEx(route string, _ time.Duration, failed bool, traceID string) {
	m.routes = append(m.routes, route)
	if failed {
		m.failed++
	}
}

func (m *fakeMetrics) AddInflight(d int64) {
	m.inflight += d
	if m.inflight > m.peak {
		m.peak = m.inflight
	}
}

func newTestNode() (*Node, *fakeMetrics) {
	met := &fakeMetrics{reg: obs.NewRegistry()}
	return New("test", "test:", met, slo.ServeMetrics, Obs{}), met
}

func serveOnce(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

func envelope(t *testing.T, rec *httptest.ResponseRecorder) *api.Error {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("HTTP %d %q is not a typed envelope", rec.Code, rec.Body)
	}
	return env.Error
}

func TestMuxGeneratesTypedFallbacks(t *testing.T) {
	n, met := newTestNode()
	ok := func(w http.ResponseWriter, _ *http.Request) error { return WriteJSON(w, http.StatusOK, "ok") }
	mux := n.Mux([]Route{
		{Pattern: "DELETE /v2/things/{id}", Handle: ok},
		{Pattern: "GET /v2/things/{id}", Handle: ok},
		{Pattern: "/v1/any", Handle: ok},
	})

	if rec := serveOnce(mux, "GET", "/v2/things/1", ""); rec.Code != http.StatusOK {
		t.Fatalf("declared GET: HTTP %d", rec.Code)
	}
	rec := serveOnce(mux, "PATCH", "/v2/things/1", "")
	if e := envelope(t, rec); rec.Code != http.StatusMethodNotAllowed || e.Code != api.CodeMethodNotAllowed ||
		e.Message != "DELETE, GET only" || rec.Header().Get("Allow") != "DELETE, GET" {
		t.Errorf("undeclared PATCH: HTTP %d Allow %q %+v; want 405, Allow in table order", rec.Code, rec.Header().Get("Allow"), e)
	}
	rec = serveOnce(mux, "POST", "/v2/elsewhere", "")
	if e := envelope(t, rec); rec.Code != http.StatusNotFound || e.Code != api.CodeNotFound ||
		e.Message != "no route POST /v2/elsewhere" {
		t.Errorf("unknown v2 path: HTTP %d %+v; want typed not_found", rec.Code, e)
	}
	if rec := serveOnce(mux, "PUT", "/v1/any", ""); rec.Code != http.StatusOK {
		t.Errorf("method-less route: HTTP %d, want every method to reach the handler", rec.Code)
	}
	if rec := serveOnce(mux, "GET", "/metrics", ""); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "sickle_obs_spans_dropped_total") {
		t.Errorf("/metrics: HTTP %d, want the registry's exposition", rec.Code)
	}
	want := "/v2/things/{id},/v2/things/{id},/v2/,/v1/any"
	if got := strings.Join(met.routes, ","); got != want || met.failed != 2 {
		t.Errorf("observed routes %s (%d failed), want %s (2 failed)", got, met.failed, want)
	}
	if met.peak != 1 || met.inflight != 0 {
		t.Errorf("in-flight gauge peak %d, now %d; want 1, 0", met.peak, met.inflight)
	}
}

func TestInstrumentJoinsCallerTrace(t *testing.T) {
	n, _ := newTestNode()
	tc := api.TraceContext{TraceID: "0123456789abcdef0123456789abcdef", SpanID: "0123456789abcdef"}
	var seen api.TraceContext
	h := n.Instrument("/r", func(w http.ResponseWriter, r *http.Request) error {
		seen, _ = api.TraceFrom(r.Context())
		return nil
	})
	req := httptest.NewRequest("GET", "/r", nil)
	req.Header.Set(api.TraceHeader, tc.HeaderValue())
	h(httptest.NewRecorder(), req)
	spans := n.Tracer().Spans(tc.TraceID)
	if seen.TraceID != tc.TraceID || len(spans) != 1 || spans[0].Name != "test:/r" || spans[0].ParentID != tc.SpanID {
		t.Errorf("handler saw trace %q, spans %+v; want one test:/r span under the caller's", seen.TraceID, spans)
	}
}

func TestJSONAdapter(t *testing.T) {
	type in struct{ N int }
	h := JSON(func(_ context.Context, req *in) (int, error) {
		if req.N < 0 {
			return 0, api.Errorf(api.CodeOverloaded, "busy").WithRetryAfter(3)
		}
		return req.N * 2, nil
	})
	for _, c := range []struct {
		body, want string
		status     int
	}{
		{`{"N":21}`, "42\n", http.StatusOK},
		{`{"N":-1}`, `{"error":{"code":"overloaded","message":"busy","retryAfterSeconds":3}}` + "\n", http.StatusTooManyRequests},
	} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/", strings.NewReader(c.body)))
		if rec.Code != c.status || rec.Body.String() != c.want {
			t.Errorf("%s: HTTP %d %q; want %d %q", c.body, rec.Code, rec.Body, c.status, c.want)
		}
	}
	rec := httptest.NewRecorder()
	if err := h(rec, httptest.NewRequest("POST", "/", strings.NewReader("{"))); api.AsError(err).Code != api.CodeInvalidArgument ||
		rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: HTTP %d err %v; want 400 invalid_argument", rec.Code, err)
	}
}
