// Package fixed implements the Q44.20 fixed-point arithmetic used by LVM's
// learned index models (paper §4.5).
//
// Each model parameter is stored as a signed 64-bit value with a 44-bit
// integer part and a 20-bit fractional part, so one parameter occupies 8
// bytes and a full linear model (slope + intercept) occupies 16 bytes. The
// lookup pipeline needs only one multiplication and one addition per node,
// which is what makes the hardware walker cheap (§7.4).
package fixed

import (
	"fmt"
	"math"
)

// FracBits is the number of fractional bits in a Q44.20 value.
const FracBits = 20

// IntBits is the number of integer bits, including the sign, in the 44.20
// split of the 64-bit container (paper §4.5).
const IntBits = 44

// One is the fixed-point representation of 1.0.
const One Q = 1 << FracBits

// Scale is the value of one unit in the fractional encoding (2^20).
const Scale = 1 << FracBits

// MaxInt is the largest integer exactly representable in the integer part
// (two's complement: 43 magnitude bits plus sign).
const MaxInt = int64(1)<<(IntBits-1) - 1

// MinInt is the most negative integer representable in the integer part.
const MinInt = -(int64(1) << (IntBits - 1))

// Q is a Q44.20 fixed-point number stored in two's complement.
type Q int64

// FromInt converts an integer to fixed point. Values outside the Q44.20
// integer range saturate, matching hardware clamp behaviour.
func FromInt(v int64) Q {
	if v > MaxInt {
		v = MaxInt
	} else if v < MinInt {
		v = MinInt
	}
	return Q(v << FracBits)
}

// FromFloat converts a float64 to the nearest representable fixed-point
// value. Training runs in floating point in the OS; the result is quantized
// with this function before being stored in a node.
func FromFloat(f float64) Q {
	if math.IsNaN(f) {
		return 0
	}
	scaled := f * Scale
	if scaled >= float64(math.MaxInt64) {
		return Q(math.MaxInt64)
	}
	if scaled <= float64(math.MinInt64) {
		return Q(math.MinInt64)
	}
	return Q(math.Round(scaled))
}

// Float returns the float64 value of q. Used only in training and tests;
// the lookup path never converts back to floating point.
func (q Q) Float() float64 { return float64(q) / Scale }

// Floor returns the largest integer less than or equal to q, i.e. the
// round-down used when a model output selects a child node or a table slot
// (paper Fig. 4, step 5).
func (q Q) Floor() int64 {
	return int64(q >> FracBits)
}

// Add returns q + r with saturation on overflow.
func (q Q) Add(r Q) Q {
	s := q + r
	// Overflow detection: operands with the same sign producing a result
	// with the opposite sign.
	if (q > 0 && r > 0 && s < 0) || (q < 0 && r < 0 && s > 0) {
		if q > 0 {
			return Q(math.MaxInt64)
		}
		return Q(math.MinInt64)
	}
	return s
}

// Neg returns -q with saturation: negating the most negative container
// value yields the most positive, matching the Add/Mul clamp behaviour.
func (q Q) Neg() Q {
	if q == Q(math.MinInt64) {
		return Q(math.MaxInt64)
	}
	return -q
}

// MulInt returns q scaled by an integer factor, floored to an integer — the
// "how many slots does n pages cover" computation the OS performs when
// sizing gapped tables with the same quantized slope the walker predicts
// with. Computing it in fixed point keeps table sizing bit-for-bit
// consistent with walk-time predictions.
func (q Q) MulInt(n int64) int64 {
	return q.Mul(FromInt(n)).Floor()
}

// Mul returns q * r in fixed point using a 128-bit intermediate so that the
// full Q44.20 dynamic range is preserved. This is the single multiplication
// performed by the LVM page walker per node.
func (q Q) Mul(r Q) Q {
	// 128-bit signed multiply via unsigned halves.
	neg := false
	a, b := int64(q), int64(r)
	if a < 0 {
		a = -a
		neg = !neg
	}
	if b < 0 {
		b = -b
		neg = !neg
	}
	hi, lo := mul64(uint64(a), uint64(b))
	// Shift the 128-bit product right by FracBits.
	res := hi<<(64-FracBits) | lo>>FracBits
	if hi>>FracBits != 0 || res > math.MaxInt64 {
		// Saturate on overflow.
		if neg {
			return Q(math.MinInt64)
		}
		return Q(math.MaxInt64)
	}
	if neg {
		return Q(-int64(res))
	}
	return Q(int64(res))
}

// MulAdd returns q*x + b, the full linear-model evaluation the walker
// performs per node: one multiply, one add.
func MulAdd(slope, x, intercept Q) Q {
	return slope.Mul(x).Add(intercept)
}

// mul64 computes the 128-bit product of two unsigned 64-bit integers.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32

	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// String renders the fixed-point value for debugging.
func (q Q) String() string {
	return fmt.Sprintf("%.6f", q.Float())
}

// Bytes is the storage footprint of one model parameter (paper §4.5).
const Bytes = 8

// ModelBytes is the storage footprint of one linear model: slope + intercept.
const ModelBytes = 2 * Bytes
