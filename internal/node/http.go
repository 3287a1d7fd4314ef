package node

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"repro/pkg/api"
)

// Route declares one endpoint: Pattern is a mux pattern, "METHOD /path",
// or a method-less "/path" whose handler checks the method itself (the
// frozen v1 shim). The path is the route's metrics label and span name.
type Route struct {
	Pattern string
	Handle  HandlerFunc
}

// Mux builds a mux from a route table, each route instrumented under its
// path. Each path declared with methods also gets a method-less
// registration answering other methods with a typed method_not_allowed
// whose Allow lists the declared methods in table order, and unknown
// /v2/ paths get a typed not_found instead of the mux's plain-text page.
// /metrics serves the tier's registry.
func (n *Node) Mux(routes []Route) *http.ServeMux {
	mux := http.NewServeMux()
	var paths []string
	allow := map[string][]string{}
	for _, rt := range routes {
		path := rt.Pattern
		if method, p, ok := strings.Cut(rt.Pattern, " "); ok {
			path = p
			if allow[path] == nil {
				paths = append(paths, path)
			}
			allow[path] = append(allow[path], method)
		}
		mux.HandleFunc(rt.Pattern, n.Instrument(path, rt.Handle))
	}
	for _, p := range paths {
		methods := strings.Join(allow[p], ", ")
		mux.HandleFunc(p, n.Instrument(p, func(w http.ResponseWriter, _ *http.Request) error {
			w.Header().Set("Allow", methods)
			return WriteAPIError(w, api.Errorf(api.CodeMethodNotAllowed, "%s only", methods))
		}))
	}
	mux.Handle("/metrics", n.met.Registry())
	mux.HandleFunc("/v2/", n.Instrument("/v2/", func(w http.ResponseWriter, r *http.Request) error {
		return WriteAPIError(w, api.Errorf(api.CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
	}))
	return mux
}

// JSON adapts fn into a handler: it decodes the request body into a Req,
// calls fn under the request context, and writes fn's answer (200) or its
// typed error.
func JSON[Req, Resp any](fn func(context.Context, *Req) (Resp, error)) HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		var req Req
		if err := DecodeBody(r, &req); err != nil {
			return WriteAPIError(w, err)
		}
		resp, err := fn(r.Context(), &req)
		if err != nil {
			return WriteAPIError(w, err)
		}
		return WriteJSON(w, http.StatusOK, resp)
	}
}

// DecodeBody decodes a JSON request body into v; malformed JSON is a
// typed invalid_argument.
func DecodeBody(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return api.Errorf(api.CodeInvalidArgument, "bad JSON: %v", err)
	}
	return nil
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// WriteAPIError writes the v2 typed envelope
// {"error":{"code":...,"message":...}} with the code's HTTP status,
// adding Retry-After for backpressure responses, and returns the typed
// error.
func WriteAPIError(w http.ResponseWriter, err error) error {
	ae := api.AsError(err)
	if ae.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfterSeconds))
	}
	WriteJSON(w, ae.Code.HTTPStatus(), api.ErrorEnvelope{Error: ae})
	return ae
}
