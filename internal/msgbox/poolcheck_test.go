package msgbox

import (
	"os"
	"strings"
	"testing"

	"repro/internal/xmlsoap"
)

// TestMain turns on the pooled-buffer lifecycle checker for this suite:
// every PutBuffer poisons the released bytes, and a double release or a
// write through a stale alias panics instead of corrupting another
// exchange's message. See xmlsoap.EnablePoolCheck. Benchmarks measure
// the production configuration (same idiom as store/wal/msgdisp).
func TestMain(m *testing.M) {
	bench := false
	for _, arg := range os.Args {
		if strings.HasPrefix(arg, "-test.bench=") && !strings.HasSuffix(arg, "=") {
			bench = true
		}
	}
	if !bench {
		xmlsoap.EnablePoolCheck()
	}
	os.Exit(m.Run())
}
