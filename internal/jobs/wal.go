package jobs

// The job journal is an internal/journal file of JSON walRecords and
// operator frames. An operator frame is operatorTag followed by the raw
// bytes of an operator (Submission.OperatorBytes); a JSON record opens
// with '{', so the first byte tells the two apart and replay copies an
// operator frame without parsing it. An operator frame belongs to the
// submit or snap record right after it, and is written only when the
// queue does not have that operator from an earlier frame of the file
// (one a live job names, or a released one it keeps). After replay, Open
// compacts the journal to one meta record carrying the sequence counter,
// then one snap record per retained job, in submit order, each held
// operator's frame just before the first live job that names it.

// walMagic tags the job journal; bump it on any record format change.
const walMagic = "ALADWAL3"

// operatorTag opens an operator frame.
const operatorTag = 0x00

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
	// NowNs stamps a patch (becomes the job's UpdatedNs) and ID names its
	// job; submit and snap records carry both inside Job.
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

	// opFrame is the operator frame journaled just before a submit or snap
	// record, nil when there is none. It is its own frame, not part of the
	// record's JSON: commit appends it, and replay hands it on from the
	// frame before.
	opFrame []byte
}

// jobID names the job a record applies to.
func (r *walRecord) jobID() string {
	if r.Job != nil {
		return r.Job.ID
	}
	return r.ID
}
