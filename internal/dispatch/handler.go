package dispatch

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Handler returns the dispatcher's HTTP API:
//
//	GET  /healthz              liveness
//	GET  /status               campaign progress + shard health (JSON)
//	POST /workers              register a worker shard: {"addr":"host:port"}
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("GET /status", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(d.Stat())
	})
	mux.HandleFunc("POST /workers", func(rw http.ResponseWriter, r *http.Request) {
		var req struct {
			Addr string `json:"addr"`
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(rw, fmt.Sprintf("decoding registration: %v", err), http.StatusBadRequest)
			return
		}
		if req.Addr == "" {
			http.Error(rw, "registration needs addr", http.StatusBadRequest)
			return
		}
		d.AddShard(req.Addr)
		rw.WriteHeader(http.StatusNoContent)
	})
	return mux
}
