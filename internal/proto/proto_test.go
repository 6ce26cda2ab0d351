package proto

import (
	"bytes"
	"reflect"
	"testing"
)

// messageFor returns a fresh value of the message struct a frame kind
// carries, or nil for an unknown kind.
func messageFor(kind byte) any {
	switch kind {
	case KindHello:
		return new(Hello)
	case KindQuery:
		return new(Query)
	case KindCancel:
		return new(Cancel)
	case KindBye:
		return new(struct{})
	case KindHelloOK:
		return new(HelloOK)
	case KindHeader:
		return new(Header)
	case KindRows:
		return new(Rows)
	case KindEpochEnd:
		return new(EpochEnd)
	case KindDone:
		return new(Done)
	case KindError:
		return new(Error)
	}
	return nil
}

// FuzzDecode feeds arbitrary payloads to Decode for every message kind.
// Decode must never panic, and a value it accepts must survive
// WriteFrame → ReadFrame → Decode unchanged whenever the re-encoded
// frame fits under MaxFrame.
func FuzzDecode(f *testing.F) {
	f.Add(KindHello, []byte(`{"Version":1}`))
	f.Add(KindQuery, []byte(`{"ID":7,"Src":"SELECT A.temp FROM Sensors A ONCE","At":1.5,"TraceID":"t-1"}`))
	f.Add(KindRows, []byte(`{"ID":7,"Epoch":0,"Rows":[[1,-0,2.5e-300],[]]}`))
	f.Add(KindError, []byte(`{"ID":0,"Code":"proto","Msg":"bad \u00ff"}`))
	f.Add(KindEpochEnd, []byte(`{"ID":1,"RowCount":3,"Complete":true,"ResponseTime":0.25}`))
	f.Add(KindHeader, []byte(`{"ID":2,"Columns":["A.temp"],"CacheHit":true,"Shared":true,"ClusterSize":4}`))
	f.Add(KindQuery, []byte(`null`))
	f.Add(KindDone, []byte(`{"ID":1,"Epochs":1e400}`))
	f.Add(byte(0), []byte(`{`))
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		v := messageFor(kind)
		if v == nil {
			v = new(any)
		}
		if err := Decode(payload, v); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, kind, v); err != nil {
			if buf.Len() != 0 {
				t.Fatalf("failed WriteFrame wrote %d bytes", buf.Len())
			}
			return // larger than MaxFrame once re-encoded
		}
		gotKind, body, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame of a written frame: %v", err)
		}
		if gotKind != kind || buf.Len() != 0 {
			t.Fatalf("frame kind %d with %d trailing bytes, want kind %d and none", gotKind, buf.Len(), kind)
		}
		again := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if err := Decode(body, again); err != nil {
			t.Fatalf("Decode of a re-encoded %T: %v", v, err)
		}
		if !reflect.DeepEqual(v, again) {
			t.Fatalf("round trip changed %T:\n%+v\n%+v", v, v, again)
		}
	})
}

// ReadFrame must reject lengths outside [1, MaxFrame] before
// allocating, and report a truncated body.
func TestReadFrameBounds(t *testing.T) {
	for _, hdr := range [][]byte{{0, 0, 0, 0}, {0, 0x80, 0, 1}, {0xff, 0xff, 0xff, 0xff}} {
		if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
			t.Fatalf("header %x accepted", hdr)
		}
	}
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 5, KindBye})); err == nil {
		t.Fatal("truncated body accepted")
	}
}
