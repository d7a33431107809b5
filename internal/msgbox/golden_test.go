package msgbox

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/httpx"
	"repro/internal/soap"
)

// takeTranscript parks three messages and takes them without a wait
// parameter (two, then the rest, then none), rendering each response as
// "<status> <content-type>\n<body>\n".
func takeTranscript(t *testing.T) []byte {
	r := newRig(t, Config{})
	id, token, _ := r.create(t)
	for i := 0; i < 3; i++ {
		if resp := r.deliver(t, id, fmt.Sprintf("golden-%d & <%d>", i, i)); resp.Status != httpx.StatusAccepted {
			t.Fatalf("deliver %d status = %d", i, resp.Status)
		}
	}
	var out bytes.Buffer
	for _, max := range []string{"2", "10", "10"} {
		body, _ := soap.AppendRPC(nil, soap.V11, ServiceNS, OpTake,
			soap.Param{Name: "boxId", Value: id},
			soap.Param{Name: "token", Value: token},
			soap.Param{Name: "max", Value: max})
		req := httpx.NewRequest("POST", "/mbox", body)
		req.Header.Set("Content-Type", soap.V11.ContentType())
		resp, err := r.client.Do("po:9200", req)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%d %s\n%s\n", resp.Status, resp.Header.Get("Content-Type"), resp.Body)
		resp.Release()
	}
	return out.Bytes()
}

// TestTakeWithoutWaitGolden pins the takeMessages response bytes of a
// take that sends no wait parameter: they match those of the mailbox
// before takes could wait.
func TestTakeWithoutWaitGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/take_nowait.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := takeTranscript(t); !bytes.Equal(got, want) {
		t.Fatalf("take responses differ from testdata/take_nowait.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
