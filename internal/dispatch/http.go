package dispatch

import (
	"errors"
	"net/http"

	"dmfb/internal/service"
)

// Request-body bounds: control messages are tiny; a result submission
// carries up to a whole shard of records.
const (
	maxControlBody = 1 << 20
	maxResultBody  = 64 << 20
)

// Routes returns the coordinator's worker-facing endpoints as extra routes
// for the serving mux:
//
//	POST /v2/workers/register   announce a worker, get an ID and lease TTL
//	POST /v2/workers/lease      pull one shard lease, held until work arrives
//	                            (204 when none does within the hold bound)
//	POST /v2/workers/heartbeat  renew a lease (410 when it is gone)
//	POST /v2/workers/results    submit a completed shard's records
func (c *Coordinator) Routes() []service.Route {
	return []service.Route{
		{Pattern: "POST /v2/workers/register", Handler: http.HandlerFunc(c.handleRegister)},
		{Pattern: "POST /v2/workers/lease", Handler: http.HandlerFunc(c.handleLease)},
		{Pattern: "POST /v2/workers/heartbeat", Handler: http.HandlerFunc(c.handleHeartbeat)},
		{Pattern: "POST /v2/workers/results", Handler: http.HandlerFunc(c.handleResults)},
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, ok := service.DecodeRequest[service.WorkerRegisterRequest](w, r, maxControlBody)
	if !ok {
		return
	}
	service.WriteJSON(w, http.StatusOK, c.register(req.Name))
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	req, ok := service.DecodeRequest[service.LeaseRequest](w, r, maxControlBody)
	if !ok {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, "worker_id is required")
		return
	}
	lease, err := c.awaitLease(r.Context(), req.WorkerID)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	service.WriteJSON(w, http.StatusOK, lease)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	req, ok := service.DecodeRequest[service.HeartbeatRequest](w, r, maxControlBody)
	if !ok {
		return
	}
	if err := c.heartbeat(req.WorkerID, req.LeaseID); err != nil {
		writeError(w, dispatchStatus(err), err.Error())
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	req, ok := service.DecodeRequest[service.ShardResultRequest](w, r, maxResultBody)
	if !ok {
		return
	}
	if err := c.submit(req); err != nil {
		writeError(w, dispatchStatus(err), err.Error())
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// dispatchStatus maps coordinator errors onto HTTP: vanished leases/jobs →
// 410 Gone (the worker abandons the shard), anything else → 400 (the
// submission itself was malformed).
func dispatchStatus(err error) int {
	if errors.Is(err, errGone) {
		return http.StatusGone
	}
	return http.StatusBadRequest
}

// writeError writes the service's {"error": msg} envelope with the given
// status.
func writeError(w http.ResponseWriter, status int, msg string) {
	service.WriteJSON(w, status, map[string]string{"error": msg})
}
