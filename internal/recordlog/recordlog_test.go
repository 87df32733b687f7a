package recordlog_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dmafault/internal/recordlog"
)

// testHeader and testRecord are a minimal log schema: the header must carry
// v=1, a record must carry "i" in [0,10) and is rejected without it.
type testHeader struct {
	V int `json:"v"`
}

type testRecord struct {
	I *int `json:"i,omitempty"`
}

const headerLine = `{"v":1}` + "\n"

func rec(i int) string { return fmt.Sprintf(`{"i":%d}`+"\n", i) }

// decoders returns the header and record decoders of the test schema,
// collecting accepted indexes into *got.
func decoders(got *[]int) (func([]byte) error, func([]byte) (bool, error)) {
	header := func(line []byte) error {
		var h testHeader
		if err := json.Unmarshal(line, &h); err != nil {
			return err
		}
		if h.V != 1 {
			return fmt.Errorf("version %d", h.V)
		}
		return nil
	}
	record := func(line []byte) (bool, error) {
		var r testRecord
		if err := json.Unmarshal(line, &r); err != nil || r.I == nil {
			return false, nil
		}
		if *r.I < 0 || *r.I >= 10 {
			return false, fmt.Errorf("index %d out of range", *r.I)
		}
		*got = append(*got, *r.I)
		return true, nil
	}
	return header, record
}

func TestReplayAndResume(t *testing.T) {
	cases := []struct {
		name    string
		file    string
		wantErr string
		want    []int
		good    string // the prefix a resume keeps
	}{
		{name: "empty body", file: headerLine, good: headerLine},
		{name: "intact", file: headerLine + rec(0) + rec(1), want: []int{0, 1}, good: headerLine + rec(0) + rec(1)},
		{name: "torn header", file: `{"v":`, wantErr: "missing header"},
		{name: "bad header", file: `{"v":2}` + "\n" + rec(0), wantErr: "version 2"},
		{name: "torn tail", file: headerLine + rec(0) + rec(1) + `{"i":2`, want: []int{0, 1}, good: headerLine + rec(0) + rec(1)},
		{name: "corrupt middle line", file: headerLine + rec(0) + "#garbage\n" + rec(2), want: []int{0}, good: headerLine + rec(0)},
		{name: "record rejected by decoder", file: headerLine + rec(0) + `{"x":1}` + "\n" + rec(2), want: []int{0}, good: headerLine + rec(0)},
		{name: "decoder error", file: headerLine + rec(0) + rec(99) + rec(1), wantErr: "index 99 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			var got []int
			header, record := decoders(&got)
			good, err := recordlog.Replay(path, header, record)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), path) {
					t.Fatalf("Replay error %v, want one naming %s and %q", err, path, tc.wantErr)
				}
				if _, err := recordlog.Open(path, true, testHeader{V: 1}, header, record); err == nil {
					t.Fatal("resume of a log Replay rejects succeeded")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) || good != int64(len(tc.good)) {
				t.Fatalf("Replay = %v at offset %d, want %v at %d", got, good, tc.want, len(tc.good))
			}

			// Resume truncates back to the last accepted line, so a record
			// appended now survives the reload.
			got = nil
			l, err := recordlog.Open(path, true, testHeader{V: 1}, header, record)
			if err != nil {
				t.Fatal(err)
			}
			seven := 7
			if err := l.Append(testRecord{I: &seven}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != tc.good+rec(7) {
				t.Fatalf("after resume+append file is %q, want %q", data, tc.good+rec(7))
			}
			got = nil
			if _, err := recordlog.Replay(path, header, record); err != nil {
				t.Fatal(err)
			}
			if want := append(append([]int(nil), tc.want...), 7); !reflect.DeepEqual(got, want) {
				t.Fatalf("reload = %v, want %v", got, want)
			}
		})
	}
}

func TestMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	var got []int
	header, record := decoders(&got)
	if _, err := recordlog.Replay(path, header, record); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Replay of a missing file: %v, want fs.ErrNotExist", err)
	}
	// Resuming a missing path starts a fresh log.
	l, err := recordlog.Open(path, true, testHeader{V: 1}, header, record)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != headerLine {
		t.Fatalf("fresh log is %q, want %q", data, headerLine)
	}
}

func TestNilLog(t *testing.T) {
	var l *recordlog.Log
	if err := l.Append(testHeader{V: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent appenders never interleave bytes: every line parses and every
// record lands exactly once. Lines are long enough to span several pipe or
// page-sized writes, so an unserialized append would tear.
func TestConcurrentAppend(t *testing.T) {
	const writers, perWriter = 8, 100
	type bigRecord struct {
		W, N    int
		Payload string
	}
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := recordlog.Create(path, testHeader{V: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := strings.Repeat(string(rune('a'+w)), 4096+w*512)
			for n := 0; n < perWriter; n++ {
				if err := l.Append(bigRecord{W: w, N: n, Payload: payload}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	header := func([]byte) error { return nil }
	record := func(line []byte) (bool, error) {
		var r bigRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return false, fmt.Errorf("interleaved line: %v", err)
		}
		if r.Payload != strings.Repeat(string(rune('a'+r.W)), 4096+r.W*512) {
			return false, fmt.Errorf("record %d/%d: payload mixed with another writer's", r.W, r.N)
		}
		seen[[2]int{r.W, r.N}] = true
		return true, nil
	}
	good, err := recordlog.Replay(path, header, record)
	if err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); good != fi.Size() {
		t.Fatalf("replay stopped at %d of %d bytes", good, fi.Size())
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("%d distinct records, want %d", len(seen), writers*perWriter)
	}
}
