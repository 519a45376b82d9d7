package plan

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"jisc/internal/tuple"
)

// Parse reads a plan from its textual form. Two syntaxes are accepted:
//
//   - infix trees, as printed by Plan.String: "((0⋈1)⋈2)". The join
//     symbol may be "⋈", "*", or whitespace: "((0 1) 2)".
//   - comma-separated left-deep orders: "0,1,2".
//
// Stream identifiers are decimal, 0 ≤ id < tuple.MaxStreams.
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("plan: empty input")
	}
	if !strings.ContainsAny(s, "()") {
		// Comma list → left-deep.
		parts := strings.Split(s, ",")
		order := make([]tuple.StreamID, 0, len(parts))
		for _, p := range parts {
			id, err := parseStream(strings.TrimSpace(p))
			if err != nil {
				return nil, err
			}
			order = append(order, id)
		}
		return LeftDeep(order...)
	}
	p := &parser{src: s}
	root, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("plan: trailing input at byte %d: %q", p.pos, p.src[p.pos:])
	}
	return New(root)
}

func parseStream(s string) (tuple.StreamID, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 || v >= tuple.MaxStreams {
		return 0, fmt.Errorf("plan: bad stream id %q", s)
	}
	return tuple.StreamID(v), nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch {
		case p.src[p.pos] == ' ' || p.src[p.pos] == '\t':
			p.pos++
		case strings.HasPrefix(p.src[p.pos:], "⋈"):
			p.pos += len("⋈")
		case p.src[p.pos] == '*':
			p.pos++
		default:
			return
		}
	}
}

// parseNode reads either "(node node)" or a stream id.
func (p *parser) parseNode() (*Node, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("plan: unexpected end of input")
	}
	if p.src[p.pos] == '(' {
		p.pos++
		left, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		right, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, fmt.Errorf("plan: missing ')' at byte %d", p.pos)
		}
		p.pos++
		return Join(left, right), nil
	}
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if start == p.pos {
		return nil, fmt.Errorf("plan: expected stream id or '(' at byte %d: %q", p.pos, p.src[p.pos:])
	}
	id, err := parseStream(p.src[start:p.pos])
	if err != nil {
		return nil, err
	}
	return Leaf(id), nil
}

// MarshalJSON encodes the plan as its infix string.
func (p *Plan) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON decodes a plan from its infix (or comma-list) string.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := Parse(s)
	if err != nil {
		return err
	}
	*p = *parsed
	return nil
}
