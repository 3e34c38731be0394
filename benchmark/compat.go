package main

import "reflect"

// enableDedup turns on content-addressed commits on a cloud.Config or a
// blobseer.Client — if the knob still exists. ROADMAP open item 3 makes
// content addressing the only write path and deletes both `Dedup` fields;
// setting them by reflection, here and nowhere else, lets that change land
// without editing the benchmark. cfg must be a pointer to a struct.
func enableDedup(cfg any) {
	f := reflect.ValueOf(cfg).Elem().FieldByName("Dedup")
	if f.IsValid() && f.Kind() == reflect.Bool && f.CanSet() {
		f.SetBool(true)
	}
}
