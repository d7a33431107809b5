package xmlsoap

import (
	"fmt"
	"strings"
)

// Name is an expanded XML name: namespace URI plus local part.
type Name struct {
	Space string
	Local string
}

// String renders the name in Clark notation, {space}local.
func (n Name) String() string {
	if n.Space == "" {
		return n.Local
	}
	return "{" + n.Space + "}" + n.Local
}

// Attr is a single attribute. Namespace declarations are not stored as
// attributes; the serializer re-derives them.
type Attr struct {
	Name  Name
	Value string
}

// Element is one node of the tree. Character data is simplified to a
// single Text field (SOAP messages do not use mixed content): Text renders
// before any child elements.
type Element struct {
	Name     Name
	Attrs    []Attr
	Text     string
	Children []*Element
}

// New returns an element named {space}local.
func New(space, local string) *Element {
	return &Element{Name: Name{Space: space, Local: local}}
}

// NewText returns an element with character content.
func NewText(space, local, text string) *Element {
	e := New(space, local)
	e.Text = text
	return e
}

// Add appends children and returns e for chaining.
func (e *Element) Add(children ...*Element) *Element {
	e.Children = append(e.Children, children...)
	return e
}

// SetText assigns character content and returns e for chaining.
func (e *Element) SetText(t string) *Element {
	e.Text = t
	return e
}

// SetAttr sets (or replaces) an attribute and returns e.
func (e *Element) SetAttr(space, local, value string) *Element {
	for i := range e.Attrs {
		if e.Attrs[i].Name.Space == space && e.Attrs[i].Name.Local == local {
			e.Attrs[i].Value = value
			return e
		}
	}
	e.Attrs = append(e.Attrs, Attr{Name: Name{Space: space, Local: local}, Value: value})
	return e
}

// Attr returns the attribute value and whether it is present.
func (e *Element) Attr(space, local string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// Child returns the first child named {space}local, or nil.
func (e *Element) Child(space, local string) *Element {
	for _, c := range e.Children {
		if c.Name.Space == space && c.Name.Local == local {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all children named {space}local.
func (e *Element) ChildrenNamed(space, local string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Name.Space == space && c.Name.Local == local {
			out = append(out, c)
		}
	}
	return out
}

// RemoveChildren deletes all children named {space}local and reports how
// many were removed.
func (e *Element) RemoveChildren(space, local string) int {
	kept := e.Children[:0]
	removed := 0
	for _, c := range e.Children {
		if c.Name.Space == space && c.Name.Local == local {
			removed++
			continue
		}
		kept = append(kept, c)
	}
	e.Children = kept
	return removed
}

// Path walks first-matching children by local name within the given
// namespace, e.g. env.Path(ns, "Header", "ReplyTo"). It returns nil if any
// step is missing.
func (e *Element) Path(space string, locals ...string) *Element {
	cur := e
	for _, l := range locals {
		cur = cur.Child(space, l)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// ChildText returns the text of the first child named {space}local, or "".
func (e *Element) ChildText(space, local string) string {
	if c := e.Child(space, local); c != nil {
		return c.Text
	}
	return ""
}

// Detach returns a deep copy of the subtree whose strings are freshly
// allocated, so the copy shares no memory with the buffer the tree was
// parsed from. Parsed trees alias their input (see Parse); call Detach on
// anything that must outlive the input bytes — in particular before a
// pooled buffer that was parsed is released.
func (e *Element) Detach() *Element {
	c := &Element{
		Name: Name{Space: strings.Clone(e.Name.Space), Local: strings.Clone(e.Name.Local)},
		Text: strings.Clone(e.Text),
	}
	if len(e.Attrs) > 0 {
		c.Attrs = make([]Attr, len(e.Attrs))
		for i, a := range e.Attrs {
			c.Attrs[i] = Attr{
				Name:  Name{Space: strings.Clone(a.Name.Space), Local: strings.Clone(a.Name.Local)},
				Value: strings.Clone(a.Value),
			}
		}
	}
	for _, ch := range e.Children {
		c.Children = append(c.Children, ch.Detach())
	}
	return c
}

// Clone returns a deep copy of the subtree.
func (e *Element) Clone() *Element {
	c := &Element{Name: e.Name, Text: e.Text}
	if len(e.Attrs) > 0 {
		c.Attrs = make([]Attr, len(e.Attrs))
		copy(c.Attrs, e.Attrs)
	}
	for _, ch := range e.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return c
}

// Equal reports deep equality of names, attributes (order-sensitive),
// text, and children.
func (e *Element) Equal(o *Element) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Name != o.Name || e.Text != o.Text ||
		len(e.Attrs) != len(o.Attrs) || len(e.Children) != len(o.Children) {
		return false
	}
	for i := range e.Attrs {
		if e.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	for i := range e.Children {
		if !e.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// String renders the serialized XML (without prolog) for debugging.
func (e *Element) String() string {
	b, err := Marshal(e)
	if err != nil {
		return fmt.Sprintf("<!-- marshal error: %v -->", err)
	}
	return string(b)
}
