// Lint fixture: part-select past its port (GEM-L004, error).
//
// `en` is one bit wide and `en[7:0]` asks for eight. The parser has no
// widths to check against, so the analyzer's width pass is what stands
// between this text and an out-of-range slice in synthesis; it names
// the net the select drives.
module part_select(input clk, input rst, input en, output reg [7:0] q);
  wire [7:0] gate;
  assign gate = en[7:0];
  always @(posedge clk) begin
    if (rst) q <= 8'd0;
    else if (gate[0]) q <= q + 8'd1;
  end
endmodule
