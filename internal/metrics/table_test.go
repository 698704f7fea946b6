package metrics

import (
	"bytes"
	"testing"
)

func TestTableString(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.AddRow("alpha", "1")
	tab.AddRow("b", "22")
	got := tab.String()
	want := "name   value\n-----  -----\nalpha  1    \nb      22   \n"
	if got != want {
		t.Errorf("String():\n%q\nwant:\n%q", got, want)
	}
}

func TestWriteCSVTable(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.AddRow("plain", "1")
	tab.AddRow("with,comma", "2")
	tab.AddRow("with \"quote\"", "3")
	var buf bytes.Buffer
	if err := tab.WriteCSVTable(&buf); err != nil {
		t.Fatal(err)
	}
	want := "name,value\nplain,1\n\"with,comma\",2\n\"with \"\"quote\"\"\",3\n"
	if buf.String() != want {
		t.Errorf("csv:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestCSVDeterminism: two renders of the same table are byte-identical.
func TestCSVDeterminism(t *testing.T) {
	tab := &Table{Header: []string{"x"}}
	tab.AddRow("y")
	var a, b bytes.Buffer
	if err := tab.WriteCSVTable(&a); err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteCSVTable(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("CSV render not deterministic")
	}
}
