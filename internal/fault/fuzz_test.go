package fault

import (
	"reflect"
	"testing"
)

// FuzzParseSchedule: whatever the text, ParseSchedule returns an error
// or a schedule whose canonical form parses back to the same schedule
// and prints the same again — and it never panics or builds something
// out of proportion to its input. Seeds are the schedules the tests and
// the documentation spell out.
func FuzzParseSchedule(f *testing.F) {
	for _, src := range []string{
		"",
		"crash@30s:mds3",
		"crash@30s-45s:mds3",
		"recover@45s:mds3",
		"crash@500ms:mds0,recover@250us:mds0,lag@1.5s-2s:client+750us",
		"drop@0.01:link2-5,drop@0.05:mds1,drop@0.02:client,drop@0.001:all",
		"drop@0.015:link2-5,drop@1e-05:all,lag@1500ms-2s:client+750us",
		"lag@10s-20s:mds2+2ms",
		"slow@10s-20s:mds2x4",
		"slow@5s-15s:mds2x2.5,partition@60s-90s:{0.2|1.3}",
		"partition@60s-90s:{0-3|4-7}",
		"partition@10s-20s:{0-1|2-3},lag@5s-15s:mds0+1ms",
		"crash@3s-4s:mds1,crash@5s-5.6s:mds3",
		// Values a float parser takes and a schedule cannot mean.
		"drop@NaN:all",
		"slow@1s-2s:mds0xInf",
		"lag@NaNs-1s:all+1ms",
		"partition@1s-2s:{0-999999999|1000000000}",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSchedule(src)
		if err != nil {
			return
		}
		text := s.String()
		back, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, text, err)
		}
		if again := back.String(); again != text {
			t.Fatalf("%q prints as %q and then as %q", src, text, again)
		}
		back.src = s.src // Source is carrier metadata, not structure.
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%q: reparsing %q changed the schedule\n was: %+v\n got: %+v", src, text, s, back)
		}
	})
}
