package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"dmafault/internal/campaign"
	"dmafault/internal/recordlog"
)

// Coordinator state log: a recordlog file recording everything the
// coordinator must not forget across a kill — lease grants, expiries,
// re-leases, and every delivered result. The header binds the log to its
// campaign (scenario-set hash + shard size); every further line is exactly
// one event. A resumed coordinator replays the log to pre-fill delivered
// results (those scenarios never re-execute) and to restore the journaled
// lease counters, so fabric_releases_total reflects the whole campaign even
// after a coordinator kill -9 and restart.

// stateVersion gates the on-disk format.
const stateVersion = 1

type stateHeader struct {
	V         int    `json:"v"`
	Scenarios int    `json:"scenarios"`
	Hash      string `json:"hash"`
	ShardSize int    `json:"shard_size"`
}

// LeaseEvent is one lease-lifecycle record: which shard, which worker,
// which attempt (0 = first grant; > 0 = a re-lease).
type LeaseEvent struct {
	Shard   int    `json:"shard"`
	Worker  string `json:"worker"`
	Attempt int    `json:"attempt"`
}

// stateRecord is one log line past the header. Exactly one field is set:
// a lease-lifecycle event, or a delivered result (Result non-nil, Index
// meaningful). Sharing the {index,result} shape with the campaign journal
// keeps the two logs grep-compatible.
type stateRecord struct {
	Lease    *LeaseEvent      `json:"lease,omitempty"`
	Expired  *LeaseEvent      `json:"expired,omitempty"`
	Released *LeaseEvent      `json:"released,omitempty"`
	Index    int              `json:"index,omitempty"`
	Result   *campaign.Result `json:"result,omitempty"`
}

// StateLog appends coordinator events to an open record log. A nil
// StateLog discards them.
type StateLog struct {
	log *recordlog.Log
}

// JournalState is what a resumed coordinator recovers from its state log:
// every delivered result keyed by global scenario index, plus the lease
// counters to replay into the metric plane.
type JournalState struct {
	Restored map[int]*campaign.Result
	Granted  int
	Expired  int
	Released int
}

// OpenStateLog creates (resume=false) or reopens (resume=true) the
// coordinator state log at path for the given normalized scenario set and
// shard size. A fresh open truncates and writes the header; a resume
// validates the header (set hash and shard size — shard boundaries must not
// move under recorded lease events), truncates any torn final line, and
// returns the recovered state. Resuming a path that does not exist falls
// back to a fresh log, so -resume on a first run just works.
func OpenStateLog(path string, scs []campaign.Scenario, shardSize int, resume bool) (*StateLog, *JournalState, error) {
	hdr, st, header, record := stateReader(scs, shardSize)
	log, err := recordlog.Open(path, resume, hdr, header, record)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: state log: %w", err)
	}
	return &StateLog{log: log}, st, nil
}

// ReadStateLog recovers the state of a log without opening it for append —
// what the fabric soak greps for a "released" record, and what tests
// inspect. A missing file yields empty state.
func ReadStateLog(path string, scs []campaign.Scenario, shardSize int) (*JournalState, error) {
	_, st, header, record := stateReader(scs, shardSize)
	if _, err := recordlog.Replay(path, header, record); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("fabric: state log: %w", err)
	}
	return st, nil
}

// stateReader returns the header a log for this set and shard size carries,
// the state its replay fills, and the recordlog decoders that fill it.
func stateReader(scs []campaign.Scenario, shardSize int) (stateHeader, *JournalState, func([]byte) error, func([]byte) (bool, error)) {
	want := stateHeader{V: stateVersion, Scenarios: len(scs), Hash: campaign.SetHash(scs), ShardSize: shardSize}
	st := &JournalState{Restored: map[int]*campaign.Result{}}
	header := func(line []byte) error {
		// Version, set hash and shard size must all match: shard boundaries
		// must not move under recorded lease events.
		var hdr stateHeader
		if err := json.Unmarshal(line, &hdr); err != nil {
			return fmt.Errorf("bad header: %w", err)
		}
		if hdr != want {
			return fmt.Errorf("header %+v, coordinator expects %+v", hdr, want)
		}
		return nil
	}
	record := func(line []byte) (bool, error) {
		var rec stateRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return false, nil
		}
		switch {
		case rec.Lease != nil:
			st.Granted++
		case rec.Expired != nil:
			st.Expired++
		case rec.Released != nil:
			st.Released++
		case rec.Result != nil:
			if rec.Index < 0 || rec.Index >= len(scs) {
				return false, fmt.Errorf("result index %d out of range", rec.Index)
			}
			st.Restored[rec.Index] = rec.Result
		default:
			// A record with no recognized field is from a future version or
			// corruption; either way everything after is untrustworthy.
			return false, nil
		}
		return true, nil
	}
	return want, st, header, record
}

// Lease records a shard lease grant.
func (l *StateLog) Lease(e LeaseEvent) error { return l.append(stateRecord{Lease: &e}) }

// Expired records a lease that ended without delivering results.
func (l *StateLog) Expired(e LeaseEvent) error { return l.append(stateRecord{Expired: &e}) }

// Released records a re-lease: the shard going to a new worker after a
// failed lease.
func (l *StateLog) Released(e LeaseEvent) error { return l.append(stateRecord{Released: &e}) }

// Result records one delivered scenario result.
func (l *StateLog) Result(index int, r *campaign.Result) error {
	return l.append(stateRecord{Index: index, Result: r})
}

// append writes one record line. Nil-safe.
func (l *StateLog) append(rec stateRecord) error {
	if l == nil {
		return nil
	}
	return l.log.Append(rec)
}

// Close closes the underlying file. Nil-safe.
func (l *StateLog) Close() error {
	if l == nil {
		return nil
	}
	return l.log.Close()
}
