package jobs

// The job journal is an internal/journal file of JSON walRecords. After
// replay, Open compacts it to one meta record carrying the sequence
// counter, then one snap record per retained job, in submit order.

// walMagic tags the job journal; bump it on any record format change.
const walMagic = "ALADWAL2"

// Record ops. Submit and snap carry the full job; the rest patch one.
const (
	opMeta      = "meta"
	opSubmit    = "submit"
	opLease     = "lease"
	opStart     = "start"
	opRequeue   = "requeue"
	opCancelReq = "cancel_req"
	opDone      = "done"
	opFail      = "fail"
	opCancel    = "cancel"
	opSnap      = "snap"
)

// walRecord is one journal entry. One struct covers every op; unused
// fields stay at their zero value and are omitted from the JSON.
type walRecord struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`
	// NowNs stamps the transition (becomes the job's UpdatedNs).
	NowNs int64  `json:"now_ns,omitempty"`
	ID    string `json:"id,omitempty"`
	// Job rides submit/snap records.
	Job *Job `json:"job,omitempty"`
	// Owner and ExpiryNs ride lease records.
	Owner    string `json:"owner,omitempty"`
	ExpiryNs int64  `json:"expiry_ns,omitempty"`
	// Result rides done records; ErrCode/ErrMsg ride fail records.
	Result  []byte `json:"result,omitempty"`
	ErrCode string `json:"err_code,omitempty"`
	ErrMsg  string `json:"err_msg,omitempty"`
	// NextSeq rides the meta record: the first unused sequence number.
	NextSeq uint64 `json:"next_seq,omitempty"`
}
