package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"dmafault/internal/recordlog"
)

// Campaign journal: a recordlog file recording each completed scenario so a
// killed campaign can resume without re-executing finished work. The header
// binds the journal to its scenario set (a hash over the normalized specs —
// resuming against a different set is an error); every further line is one
// {index, result} record, appended in whatever order workers finish.
// Because results are deterministic per scenario, replay order never
// matters: LoadJournal keys records by index, and a resumed run's summary is
// byte-identical to an uninterrupted run's.

// journalVersion gates the on-disk format.
const journalVersion = 1

type journalHeader struct {
	V         int    `json:"v"`
	Scenarios int    `json:"scenarios"`
	Hash      string `json:"hash"`
	// Set is the normalized scenario set itself (added for service crash
	// recovery: a restarted daemon can rediscover what a journal was running
	// without any out-of-band spec). Optional on read — journals written
	// before the field are still resumable by callers that hold the set —
	// but required by ScanJournal.
	Set []Scenario `json:"set,omitempty"`
}

type journalRecord struct {
	Index  int     `json:"index"`
	Result *Result `json:"result"`
}

// normalizeSet returns an index-normalized copy of the scenario set.
func normalizeSet(scs []Scenario) []Scenario {
	norm := make([]Scenario, len(scs))
	copy(norm, scs)
	for i := range norm {
		norm[i].Normalize(i)
	}
	return norm
}

// scenarioSetHash fingerprints the normalized scenario set so a journal can
// only resume the campaign it was written for.
func scenarioSetHash(scs []Scenario) string {
	data, err := json.Marshal(normalizeSet(scs))
	if err != nil {
		// Scenario is a plain struct of scalars; Marshal cannot fail.
		panic("campaign: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// ScenarioKeyVersion is the engine-version salt folded into ScenarioKey. It
// rolls whenever scenario execution semantics change (new kinds, new knobs,
// altered defaults), so a key means "this spec under this engine" — the one
// canonical identity shared by fuzz-corpus dedup, the quarantine circuit
// breaker, and any future result cache. Stale keys from an older engine
// simply never match, which is the safe failure mode for all three.
const ScenarioKeyVersion = "dmafault-engine-v2"

// Digest is the full 32-byte content address of a scenario: SHA-256 over
// the engine-version salt plus the canonical (normalized, ID-blanked) spec
// encoding. The persistent result store keys records by the full digest —
// at store scale the 8-byte truncation that suffices for quarantine display
// and log lines is too collision-prone to gate result replay.
type Digest [32]byte

// String renders the full 64-hex-char digest.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short is the 16-hex-char truncation used for logs, quarantine display,
// and fuzz-corpus dedup keys — human-scale UX, not a persistence identity.
func (d Digest) Short() string { return hex.EncodeToString(d[:8]) }

// ScenarioDigest fingerprints one scenario independently of its position in
// a set: the engine-version salt plus the full normalized spec (seed, every
// knob, fault plan, timeout) with the index-derived ID blanked. Scenarios
// that are byte-equal specs share a digest across jobs and campaigns — the
// identity the persistent result store replays cached results by.
func ScenarioDigest(s Scenario) Digest {
	s.Normalize(0)
	s.ID = ""
	data, err := json.Marshal(&s)
	if err != nil {
		panic("campaign: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(ScenarioKeyVersion))
	h.Write([]byte{'\n'})
	h.Write(data)
	var d Digest
	h.Sum(d[:0])
	return d
}

// SetHash fingerprints a whole normalized scenario set — the identity a
// campaign journal (and the fabric coordinator's state log) binds itself to,
// so a journal can only ever resume the campaign it was written for.
func SetHash(scs []Scenario) string {
	return scenarioSetHash(scs)
}

// ScenarioKey is the short display form of ScenarioDigest — the identity
// the service's quarantine circuit breaker tracks panicking scenarios by
// and the fuzzer dedups mutants by, where 64 bits is plenty and log lines
// stay readable. Anything persistent keys by the full Digest instead.
func ScenarioKey(s Scenario) string {
	return ScenarioDigest(s).Short()
}

// Journal appends completed-scenario records to an open record log.
type Journal struct {
	log *recordlog.Log
}

// journalReader decodes a journal: the header, validated by check, and the
// {index, result} records, collected into restored keyed by index.
type journalReader struct {
	hdr      journalHeader
	check    func(*journalHeader) error
	restored map[int]*Result
}

func (r *journalReader) header(line []byte) error {
	if err := json.Unmarshal(line, &r.hdr); err != nil {
		return fmt.Errorf("bad header: %w", err)
	}
	if r.hdr.V != journalVersion {
		return fmt.Errorf("version %d, want %d", r.hdr.V, journalVersion)
	}
	return r.check(&r.hdr)
}

// record accepts one intact record; a line without a result is corrupt and
// ends the replay, while an out-of-range index is a real error.
func (r *journalReader) record(line []byte) (bool, error) {
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil || rec.Result == nil {
		return false, nil
	}
	if rec.Index < 0 || rec.Index >= r.hdr.Scenarios {
		return false, fmt.Errorf("record index %d out of range", rec.Index)
	}
	r.restored[rec.Index] = rec.Result
	return true, nil
}

// setReader returns a reader that accepts only a journal written for the
// scenario set of n scenarios whose scenarioSetHash is hash.
func setReader(n int, hash string) *journalReader {
	return &journalReader{restored: map[int]*Result{}, check: func(h *journalHeader) error {
		if h.Scenarios != n {
			return fmt.Errorf("%d scenarios, campaign has %d", h.Scenarios, n)
		}
		if h.Hash != hash {
			return fmt.Errorf("scenario set hash %s, campaign is %s", h.Hash, hash)
		}
		return nil
	}}
}

// OpenJournal creates (resume=false) or reopens (resume=true) the journal
// at path for the given scenario set. A fresh open truncates and writes the
// header; a resume validates the header against the set, truncates any torn
// final line, and positions for append. Resuming a path that does not exist
// falls back to a fresh journal, so `--resume` on a first run just works.
func OpenJournal(path string, scs []Scenario, resume bool) (*Journal, error) {
	hash := scenarioSetHash(scs)
	r := setReader(len(scs), hash)
	hdr := journalHeader{V: journalVersion, Scenarios: len(scs), Hash: hash, Set: normalizeSet(scs)}
	log, err := recordlog.Open(path, resume, hdr, r.header, r.record)
	if err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	return &Journal{log: log}, nil
}

// Record appends one completed scenario as a single line; concurrent workers
// never interleave bytes.
func (j *Journal) Record(index int, r *Result) error {
	return j.log.Append(journalRecord{Index: index, Result: r})
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.log.Close() }

// LoadJournal reads the completed-scenario records of a previous run,
// validated against the scenario set, keyed by index — the value for
// Engine.Completed. A missing file yields an empty map (nothing restored);
// a torn final line is ignored.
func LoadJournal(path string, scs []Scenario) (map[int]*Result, error) {
	r := setReader(len(scs), scenarioSetHash(scs))
	if _, err := recordlog.Replay(path, r.header, r.record); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return map[int]*Result{}, nil
		}
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	return r.restored, nil
}

// JournalState is what ScanJournal recovers from a journal file without any
// out-of-band spec: the scenario set the journal was opened for (from the
// embedded header copy) and every intact completed-scenario record.
type JournalState struct {
	Path      string
	Scenarios []Scenario
	Restored  map[int]*Result
}

// Unfinished reports whether the journal records fewer completions than the
// set has scenarios — the condition under which a service restart resumes
// the campaign.
func (st *JournalState) Unfinished() bool { return len(st.Restored) < len(st.Scenarios) }

// ScanJournal reads a journal knowing nothing but its path — the boot-time
// crash-recovery primitive. The scenario set comes from the header's
// embedded copy (validated against the header hash, so a hand-edited set
// cannot silently resume); journals written before sets were embedded return
// an error and are left for out-of-band resume via LoadJournal.
func ScanJournal(path string) (*JournalState, error) {
	r := &journalReader{restored: map[int]*Result{}, check: func(h *journalHeader) error {
		if len(h.Set) == 0 {
			return errors.New("no embedded scenario set (written by an older version?)")
		}
		if len(h.Set) != h.Scenarios {
			return fmt.Errorf("embedded set has %d scenarios, header says %d", len(h.Set), h.Scenarios)
		}
		if got := scenarioSetHash(h.Set); got != h.Hash {
			return fmt.Errorf("embedded set hash %s, header says %s", got, h.Hash)
		}
		return nil
	}}
	if _, err := recordlog.Replay(path, r.header, r.record); err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	return &JournalState{Path: path, Scenarios: r.hdr.Set, Restored: r.restored}, nil
}
