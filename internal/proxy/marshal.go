// Package proxy implements the object-oriented communication path of §4.2
// and Figure 2: "the client object and a server proxy would be placed on one
// processor, and the server object and a client proxy on the other. The role
// of the proxy is to receive messages, translate information into
// architecture independent form, and forward the result to the corresponding
// proxy on the other processor."
//
// The architecture-independent form is a big-endian, type-tagged binary
// encoding (network byte order, in the tradition of XDR) so values survive
// transit between machines of different byte orders. Proxies talk over VCE
// channels, the same ports data-parallel tasks use.
package proxy

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Type tags of the portable encoding.
const (
	tagNil     = 0x00
	tagBool    = 0x01
	tagInt     = 0x02 // int64, big-endian two's complement
	tagFloat   = 0x03 // float64, IEEE-754 big-endian
	tagString  = 0x04 // u32 length + UTF-8 bytes
	tagBytes   = 0x05 // u32 length + raw bytes
	tagFloats  = 0x06 // u32 count + float64s
	tagInts    = 0x07 // u32 count + int64s
	tagStrings = 0x08 // u32 count + strings
)

// MarshalValues encodes a value list into architecture-independent form.
// Supported types: nil, bool, int, int64, float64, string, []byte,
// []float64, []int64, []string. int is widened to int64.
func MarshalValues(vals []interface{}) ([]byte, error) {
	buf := make([]byte, 0, 64)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(vals)))
	buf = append(buf, u32[:]...)
	for i, v := range vals {
		var err error
		buf, err = appendValue(buf, v)
		if err != nil {
			return nil, fmt.Errorf("proxy: argument %d: %w", i, err)
		}
	}
	return buf, nil
}

func appendValue(buf []byte, v interface{}) ([]byte, error) {
	var scratch [8]byte
	switch x := v.(type) {
	case nil:
		return append(buf, tagNil), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(buf, tagBool, b), nil
	case int:
		return appendValue(buf, int64(x))
	case int64:
		buf = append(buf, tagInt)
		binary.BigEndian.PutUint64(scratch[:], uint64(x))
		return append(buf, scratch[:]...), nil
	case float64:
		buf = append(buf, tagFloat)
		binary.BigEndian.PutUint64(scratch[:], math.Float64bits(x))
		return append(buf, scratch[:]...), nil
	case string:
		buf = append(buf, tagString)
		return appendLengthPrefixed(buf, []byte(x)), nil
	case []byte:
		buf = append(buf, tagBytes)
		return appendLengthPrefixed(buf, x), nil
	case []float64:
		buf = append(buf, tagFloats)
		var u32 [4]byte
		binary.BigEndian.PutUint32(u32[:], uint32(len(x)))
		buf = append(buf, u32[:]...)
		for _, f := range x {
			binary.BigEndian.PutUint64(scratch[:], math.Float64bits(f))
			buf = append(buf, scratch[:]...)
		}
		return buf, nil
	case []int64:
		buf = append(buf, tagInts)
		var u32 [4]byte
		binary.BigEndian.PutUint32(u32[:], uint32(len(x)))
		buf = append(buf, u32[:]...)
		for _, n := range x {
			binary.BigEndian.PutUint64(scratch[:], uint64(n))
			buf = append(buf, scratch[:]...)
		}
		return buf, nil
	case []string:
		buf = append(buf, tagStrings)
		var u32 [4]byte
		binary.BigEndian.PutUint32(u32[:], uint32(len(x)))
		buf = append(buf, u32[:]...)
		for _, s := range x {
			buf = appendLengthPrefixed(buf, []byte(s))
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("unsupported type %T", v)
	}
}

func appendLengthPrefixed(buf, data []byte) []byte {
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(data)))
	buf = append(buf, u32[:]...)
	return append(buf, data...)
}

// UnmarshalValues decodes a value list from architecture-independent form.
func UnmarshalValues(data []byte) ([]interface{}, error) {
	d := decoder{data: data}
	count, err := d.u32()
	if err != nil {
		return nil, err
	}
	if count > uint32(len(data)) {
		return nil, fmt.Errorf("proxy: value count %d exceeds payload", count)
	}
	out := make([]interface{}, 0, count)
	for i := uint32(0); i < count; i++ {
		v, err := d.value()
		if err != nil {
			return nil, fmt.Errorf("proxy: value %d: %w", i, err)
		}
		out = append(out, v)
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("proxy: %d trailing bytes", len(d.data)-d.pos)
	}
	return out, nil
}

type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) need(n int) error {
	if d.pos+n > len(d.data) {
		return fmt.Errorf("truncated (need %d bytes at %d of %d)", n, d.pos, len(d.data))
	}
	return nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, d.data[d.pos:])
	d.pos += int(n)
	return out, nil
}

func (d *decoder) value() (interface{}, error) {
	if err := d.need(1); err != nil {
		return nil, err
	}
	tag := d.data[d.pos]
	d.pos++
	switch tag {
	case tagNil:
		return nil, nil
	case tagBool:
		if err := d.need(1); err != nil {
			return nil, err
		}
		b := d.data[d.pos] != 0
		d.pos++
		return b, nil
	case tagInt:
		v, err := d.u64()
		return int64(v), err
	case tagFloat:
		v, err := d.u64()
		return math.Float64frombits(v), err
	case tagString:
		b, err := d.bytes()
		return string(b), err
	case tagBytes:
		return d.bytes()
	case tagFloats:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if err := d.need(int(n) * 8); err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			v, _ := d.u64()
			out[i] = math.Float64frombits(v)
		}
		return out, nil
	case tagInts:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if err := d.need(int(n) * 8); err != nil {
			return nil, err
		}
		out := make([]int64, n)
		for i := range out {
			v, _ := d.u64()
			out[i] = int64(v)
		}
		return out, nil
	case tagStrings:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if n > uint32(len(d.data)) {
			return nil, fmt.Errorf("string count %d exceeds payload", n)
		}
		out := make([]string, 0, n)
		for i := uint32(0); i < n; i++ {
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			out = append(out, string(b))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown tag 0x%02x", tag)
	}
}
