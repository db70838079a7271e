package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"

	"vsnoop/internal/system"
)

// digest returns a stable hash of every exported Stats field except Sync,
// the shard-synchronisation telemetry that legitimately varies with the
// shard count. Counters added to Stats later are covered automatically.
func digest(st *system.Stats) string {
	h := sha256.New()
	v := reflect.ValueOf(st).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Name == "Sync" {
			continue
		}
		fmt.Fprintf(h, "%s=", f.Name)
		encode(h, v.Field(i))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cdf is the read-only view of stats.CDF the digest needs.
type cdf interface {
	N() int
	Quantile(q float64) float64
}

// sample is the read-only view of stats.Sample the digest needs.
type sample interface {
	N() uint64
	Sum() float64
	Min() float64
	Max() float64
}

// encode writes v to h. Distributions are encoded through their accessors
// so that internal bookkeeping (a CDF's sorted flag and value order) does
// not leak into the digest.
func encode(h hash.Hash, v reflect.Value) {
	if v.CanAddr() {
		if s, ok := v.Addr().Interface().(sample); ok {
			fmt.Fprintf(h, "{n=%d sum=%x min=%x max=%x}", s.N(),
				math.Float64bits(s.Sum()), math.Float64bits(s.Min()), math.Float64bits(s.Max()))
			return
		}
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			h.Write([]byte("nil"))
			return
		}
		if c, ok := v.Interface().(cdf); ok {
			fmt.Fprintf(h, "{n=%d", c.N())
			if c.N() > 0 {
				for q := 0; q <= 20; q++ {
					fmt.Fprintf(h, " %x", math.Float64bits(c.Quantile(float64(q)/20)))
				}
			}
			h.Write([]byte{'}'})
			return
		}
		encode(h, v.Elem())
	case reflect.Struct:
		h.Write([]byte{'{'})
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				encode(h, v.Field(i))
				h.Write([]byte{' '})
			}
		}
		h.Write([]byte{'}'})
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(h, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			encode(h, v.Index(i))
			h.Write([]byte{' '})
		}
		h.Write([]byte{']'})
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(h, "%x", math.Float64bits(v.Float()))
	case reflect.String:
		fmt.Fprintf(h, "%q", v.String())
	default:
		fmt.Fprintf(h, "%v", v.Interface())
	}
}
