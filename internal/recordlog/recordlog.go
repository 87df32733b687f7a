// Package recordlog is the repository's one append-only JSONL record log:
// the framing under the campaign journal, the fabric coordinator's state log
// and the fuzz corpus.
//
// Line 1 is a header the caller defines and validates. Every further line is
// one record, marshalled with json.Marshal and written with a single Write
// under a mutex, so concurrent appenders never interleave bytes and a line is
// in the file once Append returns. Reading stops at the first torn,
// unparseable or caller-rejected line — the shape a crash mid-append leaves —
// and a resume truncates the file back to the last accepted line before
// appending, so records written after a crash-resume survive the next load.
package recordlog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// Log is an open record log positioned for append.
type Log struct {
	mu sync.Mutex
	f  *os.File
}

// Create truncates (or creates) the log at path and writes hdr as line 1.
func Create(path string, hdr any) (*Log, error) {
	line, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Replay reads the log at path. header validates line 1; record decodes each
// further complete line and reports whether it was accepted. Replay stops
// without error at the first torn line, at a line record rejects, and at
// EOF, returning the byte offset just past the last accepted line. Errors
// from header or record are real errors (a log for a different campaign, an
// out-of-range index) and abort the replay. A missing file yields an error
// satisfying errors.Is(err, fs.ErrNotExist).
func Replay(path string, header func([]byte) error, record func([]byte) (bool, error)) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return 0, fmt.Errorf("%s: missing header", path)
	}
	if err := header(line); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	good := int64(len(line))
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return good, nil // EOF, or a torn final line without its newline
		}
		ok, err := record(line)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		if !ok {
			return good, nil // corrupt line: it and everything after are torn
		}
		good += int64(len(line))
	}
}

// Open creates a fresh log (resume=false) or resumes the one at path
// (resume=true): it replays the file through header and record, truncates
// any torn tail back to the last accepted line and positions for append.
// Resuming a path that does not exist falls back to a fresh log with hdr,
// so a resume on a first run just works.
func Open(path string, resume bool, hdr any, header func([]byte) error, record func([]byte) (bool, error)) (*Log, error) {
	if !resume {
		return Create(path, hdr)
	}
	good, err := Replay(path, header, record)
	if errors.Is(err, fs.ErrNotExist) {
		return Create(path, hdr)
	}
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append marshals v to one line and writes it with a single Write under the
// log mutex. A nil Log discards the record.
func (l *Log) Append(v any) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err = l.f.Write(append(line, '\n'))
	return err
}

// Close closes the underlying file. Nil-safe.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
