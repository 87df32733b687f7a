package recordlog_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dmafault/internal/campaign"
	"dmafault/internal/fabric"
	"dmafault/internal/fuzz"
)

// fuzzSet is the scenario set the campaign journal and the fabric state log
// are opened for; record indexes in [0,3) are in range.
var fuzzSet = []campaign.Scenario{
	{Kind: campaign.KindRingFlood, Seed: 1},
	{Kind: campaign.KindBootStudy, Seed: 2},
	{Kind: campaign.KindRingFlood, Seed: 3},
}

const fuzzShardSize = 2

// FuzzRecordLog feeds arbitrary body bytes, behind a valid header, through
// the three record logs' resume paths. Each resume either fails or recovers
// the state of the file's intact prefix and truncates the file to exactly
// that prefix; one appended record then reloads as that state plus the
// record. The seed corpus in testdata/fuzz/FuzzRecordLog holds intact,
// torn, corrupt and out-of-range bodies for each log's record shapes.
func FuzzRecordLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		checkJournal(t, filepath.Join(dir, "journal.jsonl"), body)
		checkStateLog(t, filepath.Join(dir, "state.jsonl"), body)
		checkCorpus(t, filepath.Join(dir, "corpus.jsonl"), body)
	})
}

// writeBehindHeader writes a fresh log's header (by running create on path)
// followed by body, and returns the whole file.
func writeBehindHeader(t *testing.T, path string, body []byte, create func() error) []byte {
	t.Helper()
	if err := create(); err != nil {
		t.Fatal(err)
	}
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file := append(hdr, body...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return file
}

// checkPrefix requires the resumed file to be a line-aligned prefix of the
// original that keeps at least the header.
func checkPrefix(t *testing.T, path string, orig []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := bytes.IndexByte(orig, '\n') + 1
	if !bytes.HasPrefix(orig, got) || len(got) < hdrLen || got[len(got)-1] != '\n' {
		t.Fatalf("resume left %q, not a line-aligned prefix of %q", got, orig)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkJournal(t *testing.T, path string, body []byte) {
	orig := writeBehindHeader(t, path, body, func() error {
		j, err := campaign.OpenJournal(path, fuzzSet, false)
		if err != nil {
			return err
		}
		return j.Close()
	})
	prefix, loadErr := campaign.LoadJournal(path, fuzzSet)
	j, err := campaign.OpenJournal(path, fuzzSet, true)
	if (loadErr == nil) != (err == nil) {
		t.Fatalf("LoadJournal error %v but resume error %v", loadErr, err)
	}
	if err != nil {
		return
	}
	checkPrefix(t, path, orig)
	if again, err := campaign.LoadJournal(path, fuzzSet); err != nil || mustJSON(t, again) != mustJSON(t, prefix) {
		t.Fatalf("truncated journal reloads as %v (%v), want %v", again, err, prefix)
	}
	r := &campaign.Result{ID: "appended", Kind: campaign.KindRingFlood, Seed: 9, Success: true}
	if err := j.Record(1, r); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	prefix[1] = r
	if got, err := campaign.LoadJournal(path, fuzzSet); err != nil || mustJSON(t, got) != mustJSON(t, prefix) {
		t.Fatalf("journal after append reloads as %v (%v), want %v", got, err, prefix)
	}
}

func checkStateLog(t *testing.T, path string, body []byte) {
	orig := writeBehindHeader(t, path, body, func() error {
		l, _, err := fabric.OpenStateLog(path, fuzzSet, fuzzShardSize, false)
		if err != nil {
			return err
		}
		return l.Close()
	})
	prefix, readErr := fabric.ReadStateLog(path, fuzzSet, fuzzShardSize)
	l, st, err := fabric.OpenStateLog(path, fuzzSet, fuzzShardSize, true)
	if (readErr == nil) != (err == nil) {
		t.Fatalf("ReadStateLog error %v but resume error %v", readErr, err)
	}
	if err != nil {
		return
	}
	checkPrefix(t, path, orig)
	if mustJSON(t, st) != mustJSON(t, prefix) {
		t.Fatalf("resume recovered %+v, read-only replay %+v", st, prefix)
	}
	if err := l.Released(fabric.LeaseEvent{Shard: 1, Worker: "w", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	prefix.Released++
	if got, err := fabric.ReadStateLog(path, fuzzSet, fuzzShardSize); err != nil || mustJSON(t, got) != mustJSON(t, prefix) {
		t.Fatalf("state log after append reloads as %+v (%v), want %+v", got, err, prefix)
	}
}

func checkCorpus(t *testing.T, path string, body []byte) {
	orig := writeBehindHeader(t, path, body, func() error {
		c, err := fuzz.OpenCorpus(path, false)
		if err != nil {
			return err
		}
		return c.Close()
	})
	// Behind a valid header no body is an error: the corpus decoder only
	// accepts or ends the replay.
	c, err := fuzz.OpenCorpus(path, true)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, path, orig)
	prefix := mustJSON(t, c.Entries())
	if again, err := fuzz.OpenCorpus(path, true); err != nil || mustJSON(t, again.Entries()) != prefix {
		t.Fatalf("truncated corpus reloads differently (%v)", err)
	} else {
		again.Close()
	}
	e := fuzz.Entry{Scenario: campaign.Scenario{Kind: campaign.KindRingFlood, Seed: 9}, Signature: "appended"}
	for i := 0; e.Key == "" || c.HasKey(e.Key); i++ {
		e.Key = fmt.Sprintf("appended-%d", i)
	}
	if err := c.Add(e); err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, c.Entries())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fuzz.OpenCorpus(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if !got.HasKey(e.Key) || mustJSON(t, got.Entries()) != want {
		t.Fatalf("corpus after append reloads as %s, want %s", mustJSON(t, got.Entries()), want)
	}
}
