package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/tsdb"
	"repro/internal/serve"
	"repro/pkg/api"
)

// startSurfaceTiers boots one replica and a router in front of it;
// nothing is registered, since the cases below never reach a model.
func startSurfaceTiers(t *testing.T) (*serve.InProc, *Router) {
	t.Helper()
	p, err := serve.StartInProc(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(Config{URLs: []string{p.URL}, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
		p.Close(ctx)
	})
	return p, rt
}

type surfaceAnswer struct {
	status int
	allow  string
	body   string
	err    api.Error
}

func ask(h http.Handler, method, path string) surfaceAnswer {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
	a := surfaceAnswer{status: rec.Code, allow: rec.Header().Get("Allow"), body: rec.Body.String()}
	var env api.ErrorEnvelope
	if json.Unmarshal(rec.Body.Bytes(), &env) == nil && env.Error != nil {
		a.err = *env.Error // left zero (no code) when the body is not a typed envelope
	}
	return a
}

// TestTiersShareTypedFallbacks is the cross-tier surface table: for every
// route both tiers serve, a wrong method gets the same typed
// method_not_allowed envelope with Allow naming that tier's declared
// methods, and unknown /v2/ paths get the same typed not_found.
// /v2/keys/{key} differs on purpose: only a replica accepts the settle
// PUT.
func TestTiersShareTypedFallbacks(t *testing.T) {
	p, rt := startSurfaceTiers(t)
	replica, router := p.Server.Handler(), rt.Handler()
	routes := []struct {
		path, replicaAllow, routerAllow string
	}{
		{"/api/version", "GET", "GET"},
		{"/v2/infer", "POST", "POST"},
		{"/v2/subsample", "POST", "POST"},
		{"/v2/models", "GET, POST", "GET, POST"},
		{"/v2/jobs", "GET, POST", "GET, POST"},
		{"/v2/jobs/job-1", "GET, DELETE", "GET, DELETE"},
		{"/v2/jobs/job-1/result", "GET", "GET"},
		{"/v2/keys/k", "GET, PUT", "GET"},
	}
	for _, rt := range routes {
		for _, method := range []string{"PATCH", "PUT", "DELETE", "POST", "GET"} {
			declared := func(allow string) bool { return strings.Contains(", "+allow+", ", ", "+method+", ") }
			if declared(rt.replicaAllow) || declared(rt.routerAllow) {
				continue
			}
			for _, tier := range []struct {
				name  string
				h     http.Handler
				allow string
			}{{"replica", replica, rt.replicaAllow}, {"router", router, rt.routerAllow}} {
				a := ask(tier.h, method, rt.path)
				if a.status != http.StatusMethodNotAllowed || a.err.Code != api.CodeMethodNotAllowed ||
					a.allow != tier.allow || a.err.Message != tier.allow+" only" {
					t.Errorf("%s %s %s: HTTP %d Allow %q %+v; want 405 method_not_allowed, Allow %q",
						tier.name, method, rt.path, a.status, a.allow, a.err, tier.allow)
				}
			}
		}
		if rt.replicaAllow != rt.routerAllow {
			continue
		}
		if r, s := ask(replica, "PATCH", rt.path), ask(router, "PATCH", rt.path); r.body != s.body {
			t.Errorf("PATCH %s: replica %q, router %q; want identical envelopes", rt.path, r.body, s.body)
		}
	}
	// The one method-set difference, in both directions.
	if a := ask(router, "PUT", "/v2/keys/k"); a.status != http.StatusMethodNotAllowed || a.allow != "GET" {
		t.Errorf("router PUT /v2/keys/k: HTTP %d Allow %q; want 405 Allow GET", a.status, a.allow)
	}
	for _, path := range []string{"/v2/nope", "/v2/jobs/job-1/result/extra", "/v2/keys"} {
		for _, method := range []string{"GET", "POST"} {
			r, s := ask(replica, method, path), ask(router, method, path)
			if r.status != http.StatusNotFound || r.err.Code != api.CodeNotFound || r.body != s.body {
				t.Errorf("%s %s: replica HTTP %d %q, router HTTP %d %q; want identical typed not_found",
					method, path, r.status, r.body, s.status, s.body)
			}
		}
	}
}

// TestTiersShareDebugErrors: the debug surfaces fail the same way on both
// tiers, because the router's fleet view parses each request with the
// component's own code. A bad since is a 400 (the router used to answer
// 200 with no series), and a trace miss is the typed not_found envelope.
func TestTiersShareDebugErrors(t *testing.T) {
	p, rt := startSurfaceTiers(t)
	replica, router := p.Server.Handler(), rt.Handler()
	for _, c := range []struct {
		path   string
		status int
		code   api.ErrorCode
	}{
		{"/debug/history?since=bogus", http.StatusBadRequest, api.CodeInvalidArgument},
		{"/debug/history?series=sickle_*&since=yesterday", http.StatusBadRequest, api.CodeInvalidArgument},
		{"/debug/traces/0123456789abcdef", http.StatusNotFound, api.CodeNotFound},
	} {
		r, s := ask(replica, "GET", c.path), ask(router, "GET", c.path)
		for i, a := range []surfaceAnswer{r, s} {
			if a.status != c.status || a.err.Code != c.code {
				t.Errorf("%s GET %s: HTTP %d %q; want %d %s",
					[]string{"replica", "router"}[i], c.path, a.status, a.body, c.status, c.code)
			}
		}
		if r.body != s.body {
			t.Errorf("GET %s: replica %q, router %q; want identical envelopes", c.path, r.body, s.body)
		}
	}
}

// TestFleetDebugMerge: the router's /debug views are its own payload plus
// each live replica's, tagged with the replica ID.
func TestFleetDebugMerge(t *testing.T) {
	p, rt := startSurfaceTiers(t)
	router := rt.Handler()
	get := func(path string, out any) {
		t.Helper()
		rec := httptest.NewRecorder()
		router.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d %s", path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}

	// Events: time-ordered across tiers, replica events tagged, the
	// query's limit kept after the merge.
	rt.Journal().Emit(events.TypeFailover, "router 1", "")
	p.Server.Journal().Emit(events.TypeHotSwap, "replica 1", "")
	rt.Journal().Emit(events.TypeFailover, "router 2", "")
	p.Server.Journal().Emit(events.TypeHotSwap, "replica 2", "")
	var ev events.Payload
	get("/debug/events?limit=3", &ev)
	var got []string
	for _, e := range ev.Events {
		got = append(got, e.Msg+"@"+e.Attrs["replica"])
	}
	if want := "replica 1@r0,router 2@,replica 2@r0"; strings.Join(got, ",") != want {
		t.Errorf("merged events = %v, want %s", got, want)
	}

	// History: the router's series, then the replica's, tagged.
	rt.History().SampleNow()
	p.Server.History().SampleNow()
	var hist tsdb.Payload
	get("/debug/history?series=sickle_go_goroutines", &hist)
	var origins []string
	for _, s := range hist.Series {
		origins = append(origins, s.Replica)
	}
	if strings.Join(origins, ",") != ",r0" {
		t.Errorf("history series origins = %q, want the router's then r0's", origins)
	}

	// Traces: one trace's spans from both tiers in start order, and a
	// trace only a replica saw is found through the router.
	span := func(tr *obs.Tracer, traceID, name string) {
		_, sp := tr.StartSpan(api.WithTrace(context.Background(), api.TraceContext{TraceID: traceID}), name)
		sp.End()
	}
	span(rt.Tracer(), "00000000000000aa", "router:first")
	span(p.Server.Tracer(), "00000000000000aa", "server:second")
	span(p.Server.Tracer(), "00000000000000bb", "server:only")
	var tr obs.TracePayload
	get("/debug/traces/00000000000000aa", &tr)
	if len(tr.Spans) != 2 || tr.Spans[0].Name != "router:first" || tr.Spans[1].Name != "server:second" {
		t.Errorf("merged trace = %+v, want router:first then server:second", tr.Spans)
	}
	get("/debug/traces/00000000000000bb", &tr)
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "server:only" {
		t.Errorf("replica-only trace = %+v, want server:only", tr.Spans)
	}
}
