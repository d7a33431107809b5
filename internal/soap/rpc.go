package soap

import (
	"fmt"
)

// Param is one named RPC parameter. Values are string-typed — the echo and
// administrative operations in this system (like the paper's test
// workload) need no richer type map, and keeping values as strings avoids
// inventing an encoding the paper does not describe.
type Param struct {
	Name  string
	Value string
}

// Call is a decoded RPC request: operation name, service namespace, and
// parameters in document order.
type Call struct {
	ServiceNS string
	Operation string
	Params    []Param
}

// Param returns the named parameter value and whether it was present.
func (c *Call) Param(name string) (string, bool) {
	for _, p := range c.Params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// ParseRPC decodes the RPC wrapper from an envelope body. DecodeRPC
// reads the same call straight from bytes and falls back to Parse and
// ParseRPC.
func ParseRPC(e *Envelope) (*Call, error) {
	call, err := readCall(e, nil)
	if err != nil {
		return nil, err
	}
	return &call, nil
}

// readCall is ParseRPC appending the parameters to params.
func readCall(e *Envelope, params []Param) (Call, error) {
	body := e.BodyElement()
	if body == nil {
		return Call{}, fmt.Errorf("soap: empty RPC body")
	}
	if f, ok := AsFault(e); ok {
		return Call{}, f
	}
	for _, p := range body.Children {
		params = append(params, Param{Name: p.Name.Local, Value: p.Text})
	}
	return Call{ServiceNS: body.Name.Space, Operation: body.Name.Local, Params: params}, nil
}

// ParseRPCResponse decodes an <opResponse> envelope, returning the result
// parameters. A fault in the body is returned as *Fault error.
func ParseRPCResponse(e *Envelope, operation string) ([]Param, error) {
	return readResponse(e, operation, nil)
}

// readResponse is ParseRPCResponse appending the results to out.
func readResponse(e *Envelope, operation string, out []Param) ([]Param, error) {
	if f, ok := AsFault(e); ok {
		return out, f
	}
	body := e.BodyElement()
	if body == nil {
		return out, fmt.Errorf("soap: empty RPC response body")
	}
	if body.Name.Local != operation+"Response" {
		return out, fmt.Errorf("soap: unexpected RPC response element %s (want %sResponse)",
			body.Name, operation)
	}
	for _, p := range body.Children {
		out = append(out, Param{Name: p.Name.Local, Value: p.Text})
	}
	return out, nil
}
