package fuzz

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dmafault/internal/campaign"
)

func testEntry(i int, sig string) Entry {
	s := campaign.Scenario{Kind: campaign.KindRingFlood, Seed: int64(100 + i), Trials: 2}
	return Entry{Key: campaign.ScenarioKey(s), Scenario: s, Signature: sig, Round: i}
}

// Round-trip: a saved corpus reloads to the identical state, proven by the
// strongest property the fuzzer relies on — the same rng seed drives the
// same parent-selection sequence on both copies.
func TestCorpusRoundTripSchedulingOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	saved, err := OpenCorpus(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, sig := range []string{"sig-a", "sig-b", "sig-c", "sig-d"} {
		if err := saved.Add(testEntry(i, sig)); err != nil {
			t.Fatal(err)
		}
	}
	// Skew the energies so selection is not uniform.
	saved.Observe(saved.Entries()[0].Key, true)
	saved.Observe(saved.Entries()[1].Key, false)
	saved.Observe(saved.Entries()[1].Key, false)
	saved.Observe(saved.Entries()[1].Key, false)
	if err := saved.FlushStats(); err != nil {
		t.Fatal(err)
	}
	if err := saved.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := OpenCorpus(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != saved.Len() {
		t.Fatalf("reload: %d entries, want %d", loaded.Len(), saved.Len())
	}
	for i, e := range saved.Entries() {
		l := loaded.Entries()[i]
		if l.Key != e.Key || l.Signature != e.Signature || l.Execs != e.Execs ||
			l.Yield != e.Yield || l.Scenario != e.Scenario {
			t.Fatalf("entry %d differs after reload:\n got %+v\nwant %+v", i, l, e)
		}
	}
	rngA := rand.New(rand.NewSource(42))
	rngB := rand.New(rand.NewSource(42))
	for i := 0; i < 64; i++ {
		a, b := saved.PickParent(rngA), loaded.PickParent(rngB)
		if a.Key != b.Key {
			t.Fatalf("pick %d: saved chose %s, reloaded chose %s", i, a.Key, b.Key)
		}
	}
}

// A torn tail — a partial record from a crashed writer — is dropped, and
// everything before it replays; a resume truncates it away, so records
// appended afterwards survive the next load.
func TestCorpusTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	c, err := OpenCorpus(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testEntry(0, "sig-a")); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testEntry(1, "sig-b")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"add":{"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, err := OpenCorpus(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("after torn tail: %d entries, want 2", loaded.Len())
	}
	// The reopened corpus must still be appendable and reload cleanly.
	if err := loaded.Add(testEntry(2, "sig-c")); err != nil {
		t.Fatal(err)
	}
	loaded.Close()
	again, err := OpenCorpus(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	// The resume truncated the torn bytes before appending, so the entry
	// added after the crash survives the reload.
	if again.Len() != 3 {
		t.Fatalf("after append past torn tail: %d entries, want 3", again.Len())
	}
	if !again.HasSignature("sig-c") {
		t.Fatal("entry appended after resume lost on reload")
	}
}

func TestCorpusRejectsForeignKeyVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	if err := os.WriteFile(path,
		[]byte(`{"v":1,"kind":"fuzz-corpus","key_version":"dmafault-engine-v1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(path, true); err == nil {
		t.Fatal("resuming a corpus from another engine version should fail")
	}
}

func TestCorpusResumeMissingPathStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	c, err := OpenCorpus(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 0 {
		t.Fatalf("fresh corpus has %d entries", c.Len())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("resume of missing path should create the file: %v", err)
	}
}

func TestCorpusMinimizedReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	c, err := OpenCorpus(path, false)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(0, "sig-a")
	if err := c.Add(e); err != nil {
		t.Fatal(err)
	}
	small := e.Scenario
	small.Trials = 0
	if err := c.ReplaceMinimized(e.Key, small); err != nil {
		t.Fatal(err)
	}
	c.Close()

	loaded, err := OpenCorpus(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	got := loaded.Entries()[0]
	if !got.Minimized || got.Scenario != small {
		t.Fatalf("minimized replay: got %+v", got)
	}
	if got.Key != e.Key {
		t.Fatalf("minimization must keep the discovery key: got %s, want %s", got.Key, e.Key)
	}
	if len(loaded.MinimizationQueue()) != 0 {
		t.Fatal("minimized entry must not re-enter the queue on resume")
	}
}

func TestEnergyFavorsYield(t *testing.T) {
	fresh := Entry{}
	tried := Entry{Execs: 9}
	fertile := Entry{Execs: 9, Yield: 3}
	if !(fertile.Energy() > tried.Energy()) {
		t.Fatal("yielding parents must outweigh barren ones at equal execs")
	}
	if !(fresh.Energy() > tried.Energy()) {
		t.Fatal("fresh entries must outweigh well-tried barren ones")
	}
}
