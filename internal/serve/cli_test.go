package serve

import (
	"net"
	"testing"
)

// TestMainRejectsBadFlags: out-of-range sizing flags exit 2 before the
// daemon binds its address. The test holds the address itself, so a
// Main that got as far as binding would fail there with exit 1 instead;
// the control row proves that distinction holds.
func TestMainRejectsBadFlags(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"negative workers", []string{"-workers", "-1"}, 2},
		{"zero queue", []string{"-queue", "0"}, 2},
		{"negative queue", []string{"-queue", "-5"}, 2},
		{"zero quarantine", []string{"-quarantine-after", "0"}, 2},
		{"negative quarantine", []string{"-quarantine-after", "-2"}, 2},
		{"control: valid flags reach the bind", []string{"-workers", "1", "-queue", "1", "-quarantine-after", "1"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", addr}, tc.args...)
			if got := Main("simd", args); got != tc.want {
				t.Fatalf("Main(%q) = %d, want %d", args, got, tc.want)
			}
		})
	}
}
