module globedoc/perfbench

go 1.22

require globedoc v0.0.0

replace globedoc => ../
