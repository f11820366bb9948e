// Package ctrans translates the C subset of package cparse into the
// load-store language of package lsl.
//
// The translation follows Section 3.1 of the paper: control flow
// becomes tagged blocks with conditional break/continue, struct and
// array accesses become pointer component extensions (Fig. 5), casts
// are erased (LSL is untyped; runtime tags catch misuse), and the
// special functions fence/assert/assume/new_node map to the
// corresponding LSL statements.
package ctrans

import (
	"fmt"

	"checkfence/internal/cparse"
)

// CommitGlobal is the name of the reserved cell that commit()
// annotations store to (commit-point baseline method).
const CommitGlobal = "__commit"

const commitGlobal = CommitGlobal

// StructLayout records field order for a struct tag: field name to
// offset component.
type StructLayout struct {
	Tag    string
	Fields []cparse.Field
	Index  map[string]int
}

// TypeEnv collects the type-level information the translator needs:
// typedefs, struct layouts, and enum constants.
type TypeEnv struct {
	Typedefs map[string]cparse.Type
	Structs  map[string]*StructLayout
	Enums    map[string]int64 // constant name -> value
}

// NewTypeEnv builds the environment from a parsed file.
func NewTypeEnv(file *cparse.File) (*TypeEnv, error) {
	env := &TypeEnv{
		Typedefs: map[string]cparse.Type{},
		Structs:  map[string]*StructLayout{},
		Enums:    map[string]int64{},
	}
	for _, d := range file.Flatten() {
		switch d := d.(type) {
		case *cparse.TypedefDecl:
			env.Typedefs[d.Name] = d.Type
		case *cparse.StructDecl:
			layout := &StructLayout{Tag: d.Tag, Fields: d.Fields, Index: map[string]int{}}
			for i, f := range d.Fields {
				layout.Index[f.Name] = i
			}
			env.Structs[d.Tag] = layout
		case *cparse.EnumDecl:
			for i, n := range d.Names {
				env.Enums[n] = int64(i)
			}
		}
	}
	return env, nil
}

// Resolve follows typedef chains to a canonical type.
func (env *TypeEnv) Resolve(t cparse.Type) (cparse.Type, error) {
	for {
		named, ok := t.(*cparse.NamedType)
		if !ok {
			return t, nil
		}
		next, ok := env.Typedefs[named.Name]
		if !ok {
			return nil, fmt.Errorf("ctrans: unknown type name %q", named.Name)
		}
		t = next
	}
}

// StructOf returns the layout for a (possibly typedef'd) struct type.
func (env *TypeEnv) StructOf(t cparse.Type) (*StructLayout, error) {
	rt, err := env.Resolve(t)
	if err != nil {
		return nil, err
	}
	ref, ok := rt.(*cparse.StructRef)
	if !ok {
		return nil, fmt.Errorf("ctrans: not a struct type: %T", rt)
	}
	layout, ok := env.Structs[ref.Tag]
	if !ok {
		return nil, fmt.Errorf("ctrans: undefined struct %q", ref.Tag)
	}
	return layout, nil
}

// Elem returns the pointee/element type of a pointer or array type.
func (env *TypeEnv) Elem(t cparse.Type) (cparse.Type, error) {
	rt, err := env.Resolve(t)
	if err != nil {
		return nil, err
	}
	switch rt := rt.(type) {
	case *cparse.PtrType:
		return rt.Elem, nil
	case *cparse.ArrayType:
		return rt.Elem, nil
	}
	return nil, fmt.Errorf("ctrans: not a pointer or array type: %T", rt)
}
