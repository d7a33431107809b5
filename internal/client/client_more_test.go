package client

import (
	"errors"
	"testing"
	"time"

	"repro/internal/echoservice"
	"repro/internal/msgbox"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

func TestCallTimeoutHonoured(t *testing.T) {
	r := newRig(t)
	// The dispatcher's msg endpoint never answers RPC semantics in
	// time when the reply is anonymous and the service is slow; here
	// we simply call a valid endpoint with an absurdly small budget
	// crossing a trans-Atlantic link.
	_, err := r.rpc.CallTimeout(mboxURL, msgbox.ServiceNS, msgbox.OpCreate, time.Millisecond)
	if err == nil {
		t.Fatal("1ms trans-Atlantic call succeeded")
	}
	var nerr interface{ Timeout() bool }
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestMessengerStampsFrom(t *testing.T) {
	r := newRig(t)
	r.msgr.From = "http://cli:7777/msg"
	h := &wsa.Headers{To: "http://ws:81/msg"}
	if _, err := r.msgr.Send(dispatcherURL, h, xmlsoap.New(echoservice.EchoNS, "echo")); err != nil {
		t.Fatal(err)
	}
	// The service records nothing here; what matters is the headers
	// the messenger built. Exercise the path via a fresh envelope.
	env := soap.New(soap.V11).SetBody(xmlsoap.New(echoservice.EchoNS, "echo"))
	hh := h.Clone()
	hh.MessageID = wsa.NewMessageID()
	if hh.From == nil && r.msgr.From != "" {
		hh.From = &wsa.EPR{Address: r.msgr.From}
	}
	hh.Apply(env)
	got, err := wsa.FromEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if got.From == nil || got.From.Address != "http://cli:7777/msg" {
		t.Fatalf("From = %+v", got.From)
	}
}

func TestTakeEmptyMailbox(t *testing.T) {
	r := newRig(t)
	box, err := r.mboxCli.Create()
	if err != nil {
		t.Fatal(err)
	}
	envs, err := r.mboxCli.Take(box, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 0 {
		t.Fatalf("Take on empty box = %d messages", len(envs))
	}
}

func TestDestroyedMailboxStopsDeliveries(t *testing.T) {
	r := newRig(t)
	box, err := r.mboxCli.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mboxCli.Destroy(box); err != nil {
		t.Fatal(err)
	}
	// A conversation using the dead mailbox can send (202 from the
	// dispatcher) but never receives: the reply delivery 404s.
	conv := &Conversation{
		Messenger:     r.msgr,
		Mailbox:       r.mboxCli,
		Box:           box,
		DispatcherURL: dispatcherURL,
	}
	_, err = conv.Call("logical:echo", "urn:echo",
		xmlsoap.NewText(echoservice.EchoNS, "echo", "void"), 3*time.Second)
	if err == nil {
		t.Fatal("conversation with destroyed mailbox succeeded")
	}
}

func TestMalformedCreateResponseRejected(t *testing.T) {
	// A MailboxClient pointed at the echo RPC service gets a
	// syntactically valid RPC response that is not a createMsgBox
	// response; the client must reject it rather than return a
	// half-empty Box.
	r := newRig(t)
	bad := NewMailboxClient(r.rpc, "http://wsd:9100/msg", r.mboxCli.Clock)
	if _, err := bad.Create(); err == nil {
		t.Fatal("Create against a non-mailbox endpoint succeeded")
	}
}
