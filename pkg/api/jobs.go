package api

import "time"

// JobType selects the long-running pipeline a job runs.
type JobType string

const (
	JobSubsample JobType = "subsample" // the two-phase subsampling pipeline
	JobTrain     JobType = "train"     // subsample → train → (optionally) register
)

// JobState is a job's lifecycle position. Transitions are
// pending → running → {succeeded, failed, canceled}; terminal states never
// change again and expire from the server after a retention TTL.
type JobState string

const (
	JobPending   JobState = "pending"
	JobRunning   JobState = "running"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
	JobCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobSucceeded || s == JobFailed || s == JobCanceled
}

// SubmitJobRequest is the body of POST /v2/jobs. Exactly one payload field
// matching Type must be set.
//
// IdempotencyKey, when non-empty, makes the submission safely retryable:
// resubmitting the same key to the same replica returns the original
// job instead of admitting a duplicate, and transports (the client SDK,
// the shard router) are allowed to retry keyed submissions on transport
// errors — without a key a retry could double-submit, so unkeyed
// submissions stay at-most-once. Keys are caller-chosen opaque strings
// (NewIdempotencyKey mints random ones) scoped to the job retention TTL.
type SubmitJobRequest struct {
	Type           JobType           `json:"type"`
	IdempotencyKey string            `json:"idempotencyKey,omitempty"`
	Subsample      *SubsampleRequest `json:"subsample,omitempty"`
	Train          *TrainJobSpec     `json:"train,omitempty"`

	// ReserveFor is set by a shard router, never by clients, on the
	// copies of a keyed submission it sends to the key's follower
	// owners. It names the primary's client-facing job ID; the follower
	// then holds the key as a reservation instead of running the job.
	// A later submission of the same key without ReserveFor activates
	// the reservation into a runnable job (a takeover).
	ReserveFor string `json:"reserveFor,omitempty"`
}

// NewIdempotencyKey mints a random 128-bit idempotency key.
func NewIdempotencyKey() string { return randomHex(16) }

// TrainJobSpec asks the server to subsample a dataset, train a surrogate
// on the selection, and (when Register is set) publish the trained weights
// to the model registry under that name.
type TrainJobSpec struct {
	Dataset   string            `json:"dataset"`
	Scale     string            `json:"scale,omitempty"`
	Subsample *SubsampleRequest `json:"subsample,omitempty"` // pipeline params; Snapshot/Dataset fields ignored
	Window    int               `json:"window,omitempty"`    // temporal window for example building (default 1)
	Spec      ModelSpec         `json:"spec"`
	Register  string            `json:"register,omitempty"` // registry name for the trained model
	Replicas  int               `json:"replicas,omitempty"` // replicas when registering
	Epochs    int               `json:"epochs,omitempty"`   // default 5
	Batch     int               `json:"batch,omitempty"`    // default 8
	LR        float64           `json:"lr,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
}

// JobProgress is a monotonic position within the current stage, updated
// between cube batches (subsample) or epochs (train). Total may be zero
// while the work size is still unknown.
type JobProgress struct {
	Stage string `json:"stage,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total,omitempty"`
}

// Job is the status snapshot returned by POST /v2/jobs, GET /v2/jobs/{id}
// and DELETE /v2/jobs/{id}.
type Job struct {
	ID         string      `json:"id"`
	Type       JobType     `json:"type"`
	State      JobState    `json:"state"`
	Progress   JobProgress `json:"progress"`
	Error      *Error      `json:"error,omitempty"` // set for failed/canceled jobs
	CreatedAt  time.Time   `json:"createdAt"`
	StartedAt  time.Time   `json:"startedAt,omitzero"`
	FinishedAt time.Time   `json:"finishedAt,omitzero"`

	// IdempotencyKey echoes the submission's key, so a retrying caller
	// can tell it was deduplicated onto an existing job.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`

	// ReservedFor marks a follower's held copy of a keyed job that runs
	// elsewhere: a reservation (pending, never executed) or, once the
	// outcome has been settled onto it, a terminal copy. It names the
	// primary's client-facing job ID. Held copies are left out of
	// GET /v2/jobs listings and job-state counts.
	ReservedFor string `json:"reservedFor,omitempty"`
}

// SettleRequest is the body of PUT /v2/keys/{key}, sent by a shard router
// to a follower owner: it replaces the follower's reservation for the key
// with the primary's terminal outcome. Result is set for succeeded jobs.
type SettleRequest struct {
	Job    Job        `json:"job"`
	Result *JobResult `json:"result,omitempty"`
}

// JobResult is the body of GET /v2/jobs/{id}/result; the field matching
// the job's type is set.
type JobResult struct {
	Subsample *SubsampleResponse `json:"subsample,omitempty"`
	Train     *TrainJobResult    `json:"train,omitempty"`
}

// TrainJobResult summarizes a finished training job.
type TrainJobResult struct {
	Examples   int     `json:"examples"`
	Params     int     `json:"params"`
	Epochs     int     `json:"epochs"`
	FinalLoss  float64 `json:"finalLoss"`
	Registered string  `json:"registered,omitempty"` // model name, when Register was set
	Version    int     `json:"version,omitempty"`    // registered model version
}
