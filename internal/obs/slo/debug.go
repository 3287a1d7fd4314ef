package slo

import (
	"net/http"

	"repro/internal/obs"
)

// HandleSLO serves the current evaluation (GET /debug/slo).
func (e *Engine) HandleSLO(w http.ResponseWriter, _ *http.Request) {
	obs.WriteDebug(w, e.Evaluate(), nil)
}

// Mount registers the /debug/slo endpoint on a mux.
func (e *Engine) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/slo", e.HandleSLO)
}
