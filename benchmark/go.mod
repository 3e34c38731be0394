module blobcr/benchmark

go 1.24

require blobcr v0.0.0

replace blobcr => ../
