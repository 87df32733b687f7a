package trace

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL. It must never panic,
// and whatever it accepts must be a fixed point of the export: writing the
// decoded events with WriteJSONL and reading them back returns the same
// events. The seed corpus in testdata/fuzz/FuzzReadJSONL holds an intact
// stream, a torn last line, an unknown kind, a max-uint64 address and empty
// input.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			t.Fatalf("re-encode accepted events: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-read of WriteJSONL output: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(events, back) {
			t.Fatalf("round trip changed events:\n got %+v\nwant %+v", back, events)
		}
	})
}
