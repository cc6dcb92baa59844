package deploy_test

import (
	"flag"
	"io"
	"testing"

	"globedoc/internal/deploy"
)

// TestTransportVersionFlag: -transport-version takes 0, 1 or 2 and
// nothing else, refusing a bad value when the flags are parsed rather
// than casting it to a byte that pins or negotiates by accident.
func TestTransportVersionFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
		want byte
	}{
		{nil, true, 0},
		{[]string{"-transport-version", "0"}, true, 0},
		{[]string{"-transport-version", "1"}, true, 1},
		{[]string{"-transport-version", "2"}, true, 2},
		{[]string{"-transport-version", "3"}, false, 0},
		{[]string{"-transport-version", "257"}, false, 0},
		{[]string{"-transport-version", "-1"}, false, 0},
		{[]string{"-transport-version", "v2"}, false, 0},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := deploy.RegisterClientFlags(fs)
		err := fs.Parse(tc.args)
		if (err == nil) != tc.ok {
			t.Errorf("%v: parse error = %v, want ok %v", tc.args, err, tc.ok)
			continue
		}
		if got := f.Config(nil).Version; tc.ok && got != tc.want {
			t.Errorf("%v: Config().Version = %d, want %d", tc.args, got, tc.want)
		}
	}
}
