package serve

import (
	"context"
	"net/http"
	"strconv"

	"repro/internal/node"
	"repro/pkg/api"
)

// legacyPOST serves a POST-only v1 route through legacyCall.
func legacyPOST[Req, Resp any](fn func(context.Context, *Req) (Resp, error), forceStatus int) node.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		if r.Method != http.MethodPost {
			return writeLegacyError(w, api.Errorf(api.CodeMethodNotAllowed, "POST only"), 0)
		}
		return legacyCall(w, r, fn, forceStatus)
	}
}

// legacyCall is node.JSON under the v1 envelope: a bad body keeps its
// own status, fn's failures take forceStatus (see writeLegacyError; v1
// reported every subsample pipeline and registration failure as a 400).
func legacyCall[Req, Resp any](w http.ResponseWriter, r *http.Request, fn func(context.Context, *Req) (Resp, error), forceStatus int) error {
	var req Req
	if err := node.DecodeBody(r, &req); err != nil {
		return writeLegacyError(w, err, 0)
	}
	resp, err := fn(r.Context(), &req)
	if err != nil {
		return writeLegacyError(w, err, forceStatus)
	}
	return node.WriteJSON(w, http.StatusOK, resp)
}

// writeLegacyError writes the frozen v1 envelope {"error":"message"}. The
// status comes from the typed code except where the original v1 handlers
// used a coarser mapping, which forceStatus preserves (e.g. /v1/subsample
// answered 400 for every pipeline failure).
func writeLegacyError(w http.ResponseWriter, err error, forceStatus int) error {
	ae := api.AsError(err)
	status := ae.Code.HTTPStatus()
	if forceStatus != 0 && status != http.StatusMethodNotAllowed &&
		status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		status = forceStatus
	}
	if ae.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfterSeconds))
	}
	node.WriteJSON(w, status, map[string]string{"error": ae.Message})
	return ae
}
