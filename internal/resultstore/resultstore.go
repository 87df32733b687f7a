// Package resultstore is the persistent, content-addressed scenario-result
// cache behind incremental campaigns: an append-only binary record log
// keyed by the full 32-byte campaign.Digest, modeled on ninja's build/deps
// logs. Re-running a preset, resuming a campaign, or sweeping a grid that
// overlaps an earlier one only executes scenarios whose digest has never
// been recorded — everything else replays from the log byte-identically.
//
// On-disk format (all integers little-endian):
//
//	header:  magic "dmfres\x00" + format version byte,
//	         uint32 key-version length, key-version bytes
//	         (campaign.ScenarioKeyVersion at creation time)
//	record:  uint32 payload length
//	         [8]byte engine salt (truncated SHA-256 of the key version
//	         the record was written under)
//	         [32]byte scenario digest
//	         payload (canonical JSON campaign.Result, ID blanked)
//	         uint32 CRC-32 (IEEE) over salt ‖ digest ‖ payload
//
// Records are appended in one Write under a mutex, a torn or corrupt tail
// (the crash shape) is tolerated on open and truncated away, and the last
// record for a digest wins. Open loads a hash-first in-memory index
// (digest → record offset); Get reads the payload at its indexed offset
// (ReadAt), checks its CRC and decodes it on demand, so a warm store holds
// one map entry per record, not one decoded Result. That random access is
// why the store keeps this binary framing instead of internal/recordlog,
// whose line-oriented records can only be read by replaying the file.
//
// Engine-version invalidation is belt and braces: the salt folded into
// every digest means a stale-engine record can never be looked up, and the
// per-record salt lets Compact *identify* and drop those unreachable
// records (plus superseded ones) when rewriting the log offline.
package resultstore

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dmafault/internal/campaign"
)

// Format framing.
const (
	formatVersion = 1
	// maxPayload bounds one record's decode buffer; anything larger is
	// treated as corruption (a Result is a few KB of JSON, not megabytes
	// beyond the metric snapshot).
	maxPayload = 64 << 20
	// recordFixed is the fixed-size prefix after the length word: salt + digest.
	recordFixed = saltLen + digestLen
	saltLen     = 8
	digestLen   = 32
)

var magic = [8]byte{'d', 'm', 'f', 'r', 'e', 's', 0, formatVersion}

// engineSalt derives the 8-byte per-record salt for a key version.
func engineSalt(keyVersion string) [saltLen]byte {
	sum := sha256.Sum256([]byte(keyVersion))
	var s [saltLen]byte
	copy(s[:], sum[:saltLen])
	return s
}

// currentSalt is the salt stamped on records written by this engine build.
var currentSalt = engineSalt(campaign.ScenarioKeyVersion)

// entry locates one live record's payload inside the log.
type entry struct {
	off int64 // payload start
	n   int   // payload length
}

// Store is an open result log. It implements campaign.Store and is safe
// for concurrent use by engine workers (Get under a read lock with ReadAt,
// Put appending under the write lock).
type Store struct {
	mu    sync.RWMutex
	f     *os.File
	path  string
	index map[campaign.Digest]entry
	size  int64 // append offset (== file size after torn-tail truncation)

	stale      int // records skipped at open: engine salt mismatch
	superseded int // records overwritten by a later record for the same digest

	hits   atomic.Uint64
	misses atomic.Uint64
	stores atomic.Uint64
}

// Open creates (missing or empty path) or reopens a result log: the header
// is validated, every intact record is indexed hash-first (last record per
// digest wins; stale-engine records are counted but not indexed), and a
// torn or corrupt tail is truncated so the file is append-clean.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	st := &Store{f: f, path: path, index: map[campaign.Digest]entry{}}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	if fi.Size() == 0 {
		if st.size, err = writeHeader(f); err != nil {
			f.Close()
			return nil, err
		}
		return st, nil
	}
	if err := st.load(); err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

// writeHeader stamps a fresh log and returns the append offset.
func writeHeader(f *os.File) (int64, error) {
	var b []byte
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(campaign.ScenarioKeyVersion)))
	b = append(b, campaign.ScenarioKeyVersion...)
	if _, err := f.Write(b); err != nil {
		return 0, fmt.Errorf("resultstore: write header: %w", err)
	}
	return int64(len(b)), nil
}

// readHeader parses and validates the header, returning its byte length and
// the key version the log was created under.
func readHeader(r io.Reader, path string) (int64, string, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return 0, "", fmt.Errorf("resultstore: %s: short header: %w", path, err)
	}
	if string(m[:7]) != string(magic[:7]) {
		return 0, "", fmt.Errorf("resultstore: %s: not a result store (bad magic)", path)
	}
	if m[7] != formatVersion {
		return 0, "", fmt.Errorf("resultstore: %s: format version %d, want %d", path, m[7], formatVersion)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, "", fmt.Errorf("resultstore: %s: short header: %w", path, err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > 4096 {
		return 0, "", fmt.Errorf("resultstore: %s: absurd key-version length %d", path, n)
	}
	kv := make([]byte, n)
	if _, err := io.ReadFull(r, kv); err != nil {
		return 0, "", fmt.Errorf("resultstore: %s: short header: %w", path, err)
	}
	return int64(len(m) + len(lenBuf) + len(kv)), string(kv), nil
}

// record is one parsed log record (scan and compaction share the walker).
type record struct {
	salt    [saltLen]byte
	digest  campaign.Digest
	payload []byte
	off     int64 // payload offset in the file
	end     int64 // offset just past the record's trailing CRC
}

// walkRecords parses records starting at offset, invoking fn per intact
// record, and returns the offset just past the last intact one. Parsing
// stops (without error) at the first torn or corrupt record — the expected
// crash shape — mirroring the campaign journal's tolerance.
func walkRecords(r *bufio.Reader, offset int64, fn func(rec *record) error) (int64, error) {
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return offset, nil // clean EOF or torn length word
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > maxPayload {
			return offset, nil // corrupt length: treat the tail as torn
		}
		body := make([]byte, recordFixed+int(n)+4)
		if _, err := io.ReadFull(r, body); err != nil {
			return offset, nil // torn record
		}
		sum := crc32.ChecksumIEEE(body[:recordFixed+int(n)])
		if binary.LittleEndian.Uint32(body[recordFixed+int(n):]) != sum {
			return offset, nil // corrupt record: tail is untrustworthy
		}
		rec := record{
			payload: body[recordFixed : recordFixed+int(n)],
			off:     offset + 4 + recordFixed,
			end:     offset + 4 + int64(len(body)),
		}
		copy(rec.salt[:], body[:saltLen])
		copy(rec.digest[:], body[saltLen:recordFixed])
		if err := fn(&rec); err != nil {
			return offset, err
		}
		offset = rec.end
	}
}

// load scans an existing log into the index and truncates any torn tail.
func (st *Store) load() error {
	if _, err := st.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	br := bufio.NewReaderSize(st.f, 1<<20)
	hdrLen, _, err := readHeader(br, st.path)
	if err != nil {
		return err
	}
	good, err := walkRecords(br, hdrLen, func(rec *record) error {
		if rec.salt != currentSalt {
			st.stale++
			return nil
		}
		if _, dup := st.index[rec.digest]; dup {
			st.superseded++
		}
		st.index[rec.digest] = entry{off: rec.off, n: len(rec.payload)}
		return nil
	})
	if err != nil {
		return err
	}
	if err := st.f.Truncate(good); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := st.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	st.size = good
	return nil
}

// Get implements campaign.Store: look the digest up hash-first, then read
// and decode the record payload on demand. A record that fails to read or
// decode counts as a miss (the caller simply executes the scenario).
func (st *Store) Get(d campaign.Digest) (*campaign.Result, bool) {
	st.mu.RLock()
	e, ok := st.index[d]
	if !ok {
		st.mu.RUnlock()
		st.misses.Add(1)
		return nil, false
	}
	buf := make([]byte, e.n)
	_, err := st.f.ReadAt(buf, e.off)
	st.mu.RUnlock()
	if err != nil {
		st.misses.Add(1)
		return nil, false
	}
	var r campaign.Result
	if err := json.Unmarshal(buf, &r); err != nil {
		st.misses.Add(1)
		return nil, false
	}
	st.hits.Add(1)
	return &r, true
}

// Put implements campaign.Store: append one record (a single Write under
// the mutex) and point the index at it. The last record
// for a digest wins, so overwriting is append-only too.
func (st *Store) Put(d campaign.Digest, r *campaign.Result) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	buf := make([]byte, 0, 4+recordFixed+len(payload)+4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, currentSalt[:]...)
	buf = append(buf, d[:]...)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.f.Write(buf); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, dup := st.index[d]; dup {
		st.superseded++
	}
	st.index[d] = entry{off: st.size + 4 + recordFixed, n: len(payload)}
	st.size += int64(len(buf))
	st.stores.Add(1)
	return nil
}

// Len is the number of live (indexed) records.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.index)
}

// Stats is the store's observable state: log geometry plus the session's
// hit/miss/store counters (counters survive Clear — they are service-plane
// telemetry, not log contents).
type Stats struct {
	Path              string `json:"path"`
	Records           int    `json:"records"`
	StaleRecords      int    `json:"stale_records"`
	SupersededRecords int    `json:"superseded_records"`
	Bytes             int64  `json:"bytes"`
	Hits              uint64 `json:"hits"`
	Misses            uint64 `json:"misses"`
	Stores            uint64 `json:"stores"`
}

// Stats snapshots the store.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Stats{
		Path:              st.path,
		Records:           len(st.index),
		StaleRecords:      st.stale,
		SupersededRecords: st.superseded,
		Bytes:             st.size,
		Hits:              st.hits.Load(),
		Misses:            st.misses.Load(),
		Stores:            st.stores.Load(),
	}
}

// Clear drops every record: the log is truncated back to its header and
// the index emptied. Hit/miss/store counters keep counting.
func (st *Store) Clear() (dropped int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	dropped = len(st.index)
	if _, err := st.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	if err := st.f.Truncate(0); err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	hdrLen, werr := writeHeader(st.f)
	if werr != nil {
		return 0, werr
	}
	st.index = map[campaign.Digest]entry{}
	st.size = hdrLen
	st.stale, st.superseded = 0, 0
	return dropped, nil
}

// Close flushes and closes the log file.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.f.Close()
}

// CompactStats reports what an offline compaction did.
type CompactStats struct {
	RecordsBefore     int   `json:"records_before"`
	RecordsAfter      int   `json:"records_after"`
	DroppedStale      int   `json:"dropped_stale"`
	DroppedSuperseded int   `json:"dropped_superseded"`
	BytesBefore       int64 `json:"bytes_before"`
	BytesAfter        int64 `json:"bytes_after"`
}

// Compact rewrites the log at path offline (no Store may have it open),
// keeping only the latest current-engine record per digest, in the order
// the surviving records appear in the old log — ninja's recompaction, with
// the engine salt standing in for the mtime staleness check. The new log is
// written beside the old one and renamed into place, so a crash mid-compact
// leaves the original intact.
func Compact(path string) (CompactStats, error) {
	var cs CompactStats
	f, err := os.Open(path)
	if err != nil {
		return cs, fmt.Errorf("resultstore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return cs, fmt.Errorf("resultstore: %w", err)
	}
	cs.BytesBefore = fi.Size()
	br := bufio.NewReaderSize(f, 1<<20)
	hdrLen, _, err := readHeader(br, path)
	if err != nil {
		f.Close()
		return cs, err
	}
	// Pass 1: find the last current-salt record offset per digest.
	last := map[campaign.Digest]int64{}
	if _, err := walkRecords(br, hdrLen, func(rec *record) error {
		cs.RecordsBefore++
		if rec.salt != currentSalt {
			cs.DroppedStale++
			return nil
		}
		last[rec.digest] = rec.off
		return nil
	}); err != nil {
		f.Close()
		return cs, err
	}
	cs.DroppedSuperseded = cs.RecordsBefore - cs.DroppedStale - len(last)

	// Pass 2: stream survivors into a fresh log in old-log order.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return cs, fmt.Errorf("resultstore: %w", err)
	}
	br = bufio.NewReaderSize(f, 1<<20)
	if _, _, err := readHeader(br, path); err != nil {
		f.Close()
		return cs, err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact-*")
	if err != nil {
		f.Close()
		return cs, fmt.Errorf("resultstore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := writeHeader(tmp); err != nil {
		f.Close()
		tmp.Close()
		return cs, err
	}
	bw := bufio.NewWriterSize(tmp, 1<<20)
	_, err = walkRecords(br, hdrLen, func(rec *record) error {
		if rec.salt != currentSalt || last[rec.digest] != rec.off {
			return nil
		}
		cs.RecordsAfter++
		var buf []byte
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.payload)))
		buf = append(buf, rec.salt[:]...)
		buf = append(buf, rec.digest[:]...)
		buf = append(buf, rec.payload...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
		_, werr := bw.Write(buf)
		return werr
	})
	f.Close()
	if err != nil {
		tmp.Close()
		return cs, fmt.Errorf("resultstore: compact: %w", err)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return cs, fmt.Errorf("resultstore: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return cs, fmt.Errorf("resultstore: compact: %w", err)
	}
	ti, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return cs, fmt.Errorf("resultstore: compact: %w", err)
	}
	cs.BytesAfter = ti.Size()
	if err := tmp.Close(); err != nil {
		return cs, fmt.Errorf("resultstore: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return cs, fmt.Errorf("resultstore: compact: %w", err)
	}
	return cs, nil
}
